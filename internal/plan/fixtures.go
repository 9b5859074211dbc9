package plan

import (
	"fmt"
	"time"

	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/types"
)

// This file builds the chapter's two worked plans as reusable fixtures:
// the fully instantiated running-example plan of Fig. 10 (topology (d) of
// Fig. 9) and the Conference/Weather/Flight/Hotel plan of Figs. 2–3, plus
// the two-service rank join that Section 3.2 contrasts them with. The
// statistics encode the chapter's published numbers where given (movie
// chunks of 20, theatre chunks of 5, Shows selectivity 2%, DinnerPlace
// selectivity 40%, Conference average cardinality 20) and documented
// defaults elsewhere.

// RunningExampleStats returns the service statistics of the running
// example keyed by query alias.
func RunningExampleStats() map[string]service.Stats {
	return map[string]service.Stats{
		"M": {
			AvgCardinality: 200, ChunkSize: 20,
			Latency: 120 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Linear(200),
		},
		"T": {
			AvgCardinality: 50, ChunkSize: 5,
			Latency: 80 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Square(50),
		},
		"R": {
			AvgCardinality: 30, ChunkSize: 10,
			Latency: 100 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Linear(30),
		},
	}
}

// RunningExamplePlan builds the fully instantiated plan of Fig. 10:
// Movie1 and Theatre1 joined by a triangular merge-scan parallel join
// implementing Shows (selectivity 2%), piped into Restaurant1 via
// DinnerPlace (selectivity 40%, keeping the best restaurant per theatre),
// with K = 10. The returned plan is validated.
func RunningExamplePlan(reg *mart.Registry) (*Plan, *query.Query, error) {
	q, err := query.RunningExample(reg)
	if err != nil {
		return nil, nil, err
	}
	f, err := q.CheckFeasibility()
	if err != nil {
		return nil, nil, err
	}
	if !f.Feasible {
		return nil, nil, fmt.Errorf("plan: running example infeasible: %v", f.Unreachable)
	}
	stats := RunningExampleStats()
	p := New(10)
	shows, _ := reg.Pattern("Shows")
	dinner, _ := reg.Pattern("DinnerPlace")

	nodes := []*Node{
		{ID: "input", Kind: KindInput},
		{ID: "output", Kind: KindOutput},
		{
			ID: "M", Kind: KindService, Alias: "M",
			Interface: mustInterface(reg, "Movie1"), Stats: stats["M"],
			Bindings: f.Bindings["M"],
		},
		{
			ID: "T", Kind: KindService, Alias: "T",
			Interface: mustInterface(reg, "Theatre1"), Stats: stats["T"],
			Bindings: f.Bindings["T"],
		},
		{
			ID: "MS", Kind: KindJoin,
			Strategy: join.Strategy{
				Invocation: join.MergeScan,
				Completion: join.Triangular,
			},
			JoinSelectivity: shows.Selectivity,
			JoinPreds:       patternPreds(q, "Shows"),
		},
		{
			ID: "R", Kind: KindService, Alias: "R",
			Interface: mustInterface(reg, "Restaurant1"), Stats: stats["R"],
			Bindings:        f.Bindings["R"],
			PipeSelectivity: dinner.Selectivity,
			Limit:           1,
		},
	}
	for _, n := range nodes {
		if err := p.AddNode(n); err != nil {
			return nil, nil, err
		}
	}
	for _, arc := range [][2]string{
		{"input", "M"}, {"input", "T"},
		{"M", "MS"}, {"T", "MS"},
		{"MS", "R"}, {"R", "output"},
	} {
		if err := p.Connect(arc[0], arc[1]); err != nil {
			return nil, nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, q, nil
}

// RankedJoinWeights is the ranking of RankedJoinPlan: the chapter's
// weighted sum, with equal weights on the two services.
func RankedJoinWeights() map[string]float64 {
	return map[string]float64{"X": 0.5, "Y": 0.5}
}

// RankedJoinPlan builds the two-service join Section 3.2 uses to contrast
// guaranteed top-k joins with the chapter's approximate methods: ranked
// search services X and Y (the tables x and y, such as synth.NewRanked
// builds) joined on X.Key = Y.Key with selectivity sel, asking for the
// best k pairs. Each service's fetching factor reaches all its chunks, so
// a pull run ends on the top-k guarantee or on exhaustion, never on a
// budget. The returned plan is validated and annotated.
func RankedJoinPlan(x, y *service.Table, sel float64, k int) (*Annotated, error) {
	p := New(k)
	svc := func(alias string, tab *service.Table) *Node {
		return &Node{ID: alias, Kind: KindService, Alias: alias, Interface: tab.Interface(), Stats: tab.Stats()}
	}
	nodes := []*Node{
		{ID: "input", Kind: KindInput},
		{ID: "output", Kind: KindOutput},
		svc("X", x),
		svc("Y", y),
		{
			ID: "XY", Kind: KindJoin,
			Strategy:        join.Strategy{Invocation: join.MergeScan, Completion: join.Triangular},
			JoinSelectivity: sel,
			JoinPreds: []query.Predicate{{
				Left: query.PathRef{Alias: "X", Path: "Key"}, Op: types.OpEq,
				Right: query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "Y", Path: "Key"}},
			}},
		},
	}
	for _, n := range nodes {
		if err := p.AddNode(n); err != nil {
			return nil, err
		}
	}
	for _, arc := range [][2]string{
		{"input", "X"}, {"input", "Y"}, {"X", "XY"}, {"Y", "XY"}, {"XY", "output"},
	} {
		if err := p.Connect(arc[0], arc[1]); err != nil {
			return nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	chunks := func(tab *service.Table) int {
		cs := tab.Stats().ChunkSize
		if cs <= 0 { // unchunked: Annotate assigns it no factor
			return 1
		}
		return max(1, (tab.Len()+cs-1)/cs)
	}
	return Annotate(p, map[string]int{"X": chunks(x), "Y": chunks(y)})
}

// Fig10Fetches is the fetching-factor assignment of Section 5.6: 5 chunks
// of 20 movies and 5 chunks of 5 theatres (Restaurant keeps one fetch per
// invocation).
func Fig10Fetches() map[string]int {
	return map[string]int{"M": 5, "T": 5, "R": 1}
}

// TravelStats returns the service statistics of the Conference/Weather/
// Flight/Hotel plan, keyed by alias. Conference produces 20 tuples on
// average (the number given with Fig. 2); Weather returns one climate
// tuple per city and month; Flight and Hotel are chunked search services.
func TravelStats() map[string]service.Stats {
	return map[string]service.Stats{
		"C": {
			AvgCardinality: 20,
			Latency:        150 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Constant(0.5),
		},
		"W": {
			AvgCardinality: 1,
			Latency:        60 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Constant(0.5),
		},
		"F": {
			AvgCardinality: 40, ChunkSize: 10,
			Latency: 200 * time.Millisecond, CostPerCall: 2,
			Scoring: service.Linear(40),
		},
		"H": {
			AvgCardinality: 40, ChunkSize: 10,
			Latency: 90 * time.Millisecond, CostPerCall: 1,
			Scoring: service.Square(40),
		},
	}
}

// TravelPlan builds the plan of Figs. 2–3: Conference (exact,
// proliferative) piped into Weather (exact, made selective in the context
// of the query by the AvgTemp > 26 selection), whose surviving tuples feed
// the Flight and Hotel search services, merge-scan joined and returned.
func TravelPlan(reg *mart.Registry) (*Plan, *query.Query, error) {
	q, err := query.TravelExample(reg)
	if err != nil {
		return nil, nil, err
	}
	f, err := q.CheckFeasibility()
	if err != nil {
		return nil, nil, err
	}
	if !f.Feasible {
		return nil, nil, fmt.Errorf("plan: travel example infeasible: %v", f.Unreachable)
	}
	stats := TravelStats()
	p := New(10)
	forecast, _ := reg.Pattern("Forecast")

	var tempSelection []query.Predicate
	for _, pr := range q.SelectionsFor("W") {
		if pr.Left.Path == "AvgTemp" {
			tempSelection = append(tempSelection, pr)
		}
	}
	nodes := []*Node{
		{ID: "input", Kind: KindInput},
		{ID: "output", Kind: KindOutput},
		{
			ID: "C", Kind: KindService, Alias: "C",
			Interface: mustInterface(reg, "Conference1"), Stats: stats["C"],
			Bindings: f.Bindings["C"],
		},
		{
			ID: "W", Kind: KindService, Alias: "W",
			Interface: mustInterface(reg, "Weather1"), Stats: stats["W"],
			Bindings:        f.Bindings["W"],
			PipeSelectivity: forecast.Selectivity,
		},
		{
			ID: "sigma", Kind: KindSelection,
			Selections:  tempSelection,
			Selectivity: 1.0 / 3.0,
		},
		{
			ID: "F", Kind: KindService, Alias: "F",
			Interface: mustInterface(reg, "Flight1"), Stats: stats["F"],
			Bindings: f.Bindings["F"],
		},
		{
			ID: "H", Kind: KindService, Alias: "H",
			Interface: mustInterface(reg, "Hotel1"), Stats: stats["H"],
			Bindings: f.Bindings["H"],
		},
		{
			ID: "MS", Kind: KindJoin,
			Strategy: join.Strategy{
				Invocation: join.MergeScan,
				Completion: join.Rectangular,
			},
			JoinSelectivity: 0.05,
		},
	}
	for _, n := range nodes {
		if err := p.AddNode(n); err != nil {
			return nil, nil, err
		}
	}
	for _, arc := range [][2]string{
		{"input", "C"}, {"C", "W"}, {"W", "sigma"},
		{"sigma", "F"}, {"sigma", "H"},
		{"F", "MS"}, {"H", "MS"}, {"MS", "output"},
	} {
		if err := p.Connect(arc[0], arc[1]); err != nil {
			return nil, nil, err
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	return p, q, nil
}

func mustInterface(reg *mart.Registry, name string) *mart.Interface {
	si, ok := reg.Interface(name)
	if !ok {
		panic("plan: fixture interface missing: " + name)
	}
	return si
}

// patternPreds returns the expanded join predicates of the named pattern
// use within q.
func patternPreds(q *query.Query, pattern string) []query.Predicate {
	var out []query.Predicate
	for _, u := range q.Patterns {
		if u.Name != pattern || u.Pattern == nil {
			continue
		}
		for _, j := range u.Pattern.Joins {
			out = append(out, query.Predicate{
				Left: query.PathRef{Alias: u.FromAlias, Path: j.From},
				Op:   types.OpEq,
				Right: query.Term{Kind: query.TermPath,
					Path: query.PathRef{Alias: u.ToAlias, Path: j.To}},
			})
		}
	}
	return out
}
