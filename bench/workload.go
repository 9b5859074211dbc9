package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"

	"seco/internal/query"
)

// worldSeed fixes the synthetic world every workload queries: secoserve's
// default. -seed varies the request schedule only. A seeded world would
// change how many conferences, theatres and edges match, so runs with
// different seeds would measure different amounts of work and could not
// be compared within the bounds below.
const worldSeed = 7

// deadlineMS rides on every request; with Admission.MaxDeadline at one
// hour no request is ever shed or cut short by its budget.
const deadlineMS = 3600000

// queryClass is one distinct (query, k, inputs) the oracle answers.
type queryClass struct {
	text   string
	k      int
	inputs map[string]string // literal syntax, as POST /query takes them
}

// request is one generated POST /query body and the class whose
// reference answer it must match.
type request struct {
	body  []byte
	class int
}

// generator yields one client's request sequence.
type generator func() request

// workload is one traffic mix against one scenario.
type workload struct {
	name, why string
	scenario  string
	share     bool // serve.Config.CacheCalls
	clients   int  // closed-loop keep-alive clients
	classes   []queryClass
	// newGen builds client's deterministic request sequence from the seed.
	newGen func(w *workload, seed int64, client int) generator
}

// wireRequest mirrors the POST /query body the server decodes.
type wireRequest struct {
	Query      string            `json:"query"`
	K          int               `json:"k"`
	DeadlineMS float64           `json:"deadline_ms"`
	Inputs     map[string]string `json:"inputs,omitempty"`
}

func encodeRequest(text string, k int, inputs map[string]string) []byte {
	body, err := json.Marshal(wireRequest{Query: text, K: k, DeadlineMS: deadlineMS, Inputs: inputs})
	if err != nil {
		panic(err) // strings, ints and a string map always marshal
	}
	return body
}

// bodies pre-encodes one request per class, so generating a repeated
// request costs the clients nothing.
func (w *workload) bodies() [][]byte {
	out := make([][]byte, len(w.classes))
	for i, c := range w.classes {
		out[i] = encodeRequest(c.text, c.k, c.inputs)
	}
	return out
}

// clientRand seeds one client's schedule; clients of one run differ.
func clientRand(seed int64, client int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(client)))
}

// movieClasses is the genre × language × country × category grid of the
// movie world (4 × 2 × 3 × 3 = 72 bindings) over the running example.
func movieClasses() []queryClass {
	var out []queryClass
	for _, genre := range []string{"Comedy", "Drama", "Thriller", "Romance"} {
		for _, lang := range []string{"English", "Italian"} {
			for _, country := range []string{"Italy", "France", "USA"} {
				for _, cat := range []string{"Pizzeria", "Trattoria", "Sushi"} {
					out = append(out, queryClass{
						text: query.RunningExampleText, k: 10,
						inputs: map[string]string{
							"INPUT1": `"` + genre + `"`, "INPUT7": `"` + lang + `"`,
							"INPUT2": `"` + country + `"`, "INPUT6": `"` + cat + `"`,
						},
					})
				}
			}
		}
	}
	return out
}

// rotateClasses walks a seeded shuffle of the classes, cyclically.
func rotateClasses(w *workload, seed int64, client int) generator {
	bodies := w.bodies()
	order := clientRand(seed, client).Perm(len(bodies))
	i := 0
	return func() request {
		c := order[i%len(order)]
		i++
		return request{body: bodies[c], class: c}
	}
}

// travelClasses is the canonical travel query at the three result sizes
// the workloads mix.
func travelClasses() []queryClass {
	var out []queryClass
	for _, k := range []int{3, 5, 10} {
		out = append(out, queryClass{text: query.TravelExampleText, k: k})
	}
	return out
}

// shuffleBlocks draws the classes without replacement, block after
// block: the order is random but every block of len(classes) requests
// holds each class once, so two runs do the same work per request.
func shuffleBlocks(w *workload, seed int64, client int) generator {
	bodies := w.bodies()
	rng := clientRand(seed, client)
	var block []int
	return func() request {
		if len(block) == 0 {
			block = rng.Perm(len(bodies))
		}
		c := block[0]
		block = block[1:]
		return request{body: bodies[c], class: c}
	}
}

// churnEvery is the cold-plan period of triangle-churn.
const churnEvery = 8

// coldVariant is the canonical triangle query with one more selection
// that every artist passes (Draw is in [0,100)): the answer is the
// canonical one, the text — and so the plan-cache key — is new.
func coldVariant(n int64) string {
	return strings.Replace(query.TriangleExampleText, "\nrank",
		fmt.Sprintf(" and A.Draw > -%d\nrank", n), 1)
}

// churn sends the canonical triangle query, except that one request in
// every churnEvery is a variant no client has sent before.
func churn(w *workload, seed int64, client int) generator {
	canonical := w.bodies()[0]
	// The first variant number depends on the seed alone, and clients
	// interleave from it, so no two requests of a run share a variant.
	first := rand.New(rand.NewSource(seed)).Int63n(1<<30)*int64(w.clients) + 1
	phase := clientRand(seed, client).Intn(churnEvery)
	var i, colds int64
	return func() request {
		cold := i%churnEvery == int64(phase)
		i++
		if !cold {
			return request{body: canonical, class: 0}
		}
		n := first + colds*int64(w.clients) + int64(client)
		colds++
		return request{body: encodeRequest(coldVariant(n), w.classes[0].k, nil), class: 0}
	}
}

// workloads lists the four traffic mixes, in run order.
func workloads() []*workload {
	return []*workload{
		{
			name:     "movienight-hot",
			why:      "tiny memoized queries: HTTP, admission, plan-cache lookup, compile and plancheck dominate; optimizer and substrate idle",
			scenario: "movienight", share: true, clients: 1,
			classes: movieClasses(), newGen: rotateClasses,
		},
		{
			name:     "conftravel-deep",
			why:      "Share off: ~115 fetches per request all reach service.Table, so operator loops, invoker stack and substrate do the work",
			scenario: "conftravel", share: false, clients: 1,
			classes: travelClasses(), newGen: shuffleBlocks,
		},
		{
			name:     "conftravel-shared",
			why:      "same stream, Share on, 4 clients: memo reads and dedup replace wire fetches and add lock contention; bypasses the substrate",
			scenario: "conftravel", share: true, clients: 4,
			classes: travelClasses(), newGen: shuffleBlocks,
		},
		{
			name:     "triangle-churn",
			why:      "every 8th request is a never-seen query: parse, branch-and-bound, engine build and eviction run beside plan-cache hits",
			scenario: "triangle", share: true, clients: 2,
			classes: []queryClass{{text: query.TriangleExampleText, k: 10}}, newGen: churn,
		},
	}
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads() {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}
