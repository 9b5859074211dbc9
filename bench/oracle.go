package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"seco/internal/core"
	"seco/internal/types"
)

// scoreTolerance is the largest score difference from the reference a
// correct response may show.
const scoreTolerance = 1e-9

// buildSystem builds the scenario's system and canonical INPUT bindings
// over the benchmark world.
func buildSystem(scenario string) (*core.System, map[string]types.Value, error) {
	switch scenario {
	case "movienight":
		return core.MovieNight(worldSeed)
	case "conftravel":
		return core.ConfTravel(worldSeed)
	case "triangle":
		return core.Triangle(worldSeed)
	}
	return nil, nil, fmt.Errorf("unknown scenario %q", scenario)
}

// bindInputs overlays a class's literal inputs on the canonical bindings,
// as the server does for a request.
func bindInputs(canonical map[string]types.Value, literals map[string]string) map[string]types.Value {
	if len(literals) == 0 {
		return canonical
	}
	out := make(map[string]types.Value, len(canonical)+len(literals))
	for name, v := range canonical {
		out[name] = v
	}
	for name, lit := range literals {
		out[name] = types.ParseValue(lit)
	}
	return out
}

// oracle holds, per query class, the reference top-k scores: what the
// materialize-then-truncate executor returns on a system built apart
// from the server under test.
type oracle struct {
	scores [][]float64
}

func newOracle(w *workload) (*oracle, error) {
	sys, canonical, err := buildSystem(w.scenario)
	if err != nil {
		return nil, err
	}
	o := &oracle{scores: make([][]float64, len(w.classes))}
	for i, c := range w.classes {
		q, err := sys.Parse(c.text)
		if err != nil {
			return nil, fmt.Errorf("oracle: class %d: %w", i, err)
		}
		res, err := sys.Plan(q, core.PlanOptions{K: c.k})
		if err != nil {
			return nil, fmt.Errorf("oracle: class %d: %w", i, err)
		}
		run, err := sys.Run(context.Background(), res, core.RunOptions{
			Inputs: bindInputs(canonical, c.inputs), Materialize: true,
		})
		if err != nil {
			return nil, fmt.Errorf("oracle: class %d: %w", i, err)
		}
		scores := make([]float64, len(run.Combinations))
		for j, comb := range run.Combinations {
			scores[j] = comb.Score
		}
		o.scores[i] = scores
	}
	return o, nil
}

// wireResponse is the part of the POST /query payload the oracle reads.
type wireResponse struct {
	Degraded     json.RawMessage `json:"degraded"`
	CertifiedK   int             `json:"certified_k"`
	Combinations []struct {
		Score float64 `json:"score"`
	} `json:"combinations"`
}

// check reports why a response is not the certified reference answer of
// its class, or nil when it is.
func (o *oracle) check(class, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, body)
	}
	var resp wireResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("undecodable response: %w", err)
	}
	if len(resp.Degraded) > 0 && string(resp.Degraded) != "null" {
		return fmt.Errorf("degraded: %s", resp.Degraded)
	}
	scores := make([]float64, len(resp.Combinations))
	for i, c := range resp.Combinations {
		scores[i] = c.Score
	}
	return o.checkScores(class, scores, resp.CertifiedK)
}

// checkScores compares a ranked answer and its certified prefix length
// with the class's reference.
func (o *oracle) checkScores(class int, scores []float64, certified int) error {
	want := o.scores[class]
	if len(scores) != len(want) || certified != len(want) {
		return fmt.Errorf("%d combinations, certified_k %d, want %d", len(scores), certified, len(want))
	}
	for i, s := range scores {
		if i > 0 && s > scores[i-1] {
			return fmt.Errorf("score %d rises: %v after %v", i, s, scores[i-1])
		}
		if math.Abs(s-want[i]) > scoreTolerance {
			return fmt.Errorf("score %d is %v, reference %v", i, s, want[i])
		}
	}
	return nil
}
