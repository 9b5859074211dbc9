package plancheck_test

import (
	"fmt"
	"testing"

	"seco/internal/cost"
	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// movieFixture returns the running-example plan and its registry.
func movieFixture(t *testing.T) (*plan.Plan, *mart.Registry) {
	t.Helper()
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	return p, reg
}

// triangleFixture returns the optimized cyclic triangle plan and the ID
// of its multi-way join node.
func triangleFixture(t *testing.T) (*plan.Plan, string) {
	t.Helper()
	reg, err := mart.TriangleScenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.TriangleExample(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTriangleWorld(reg, synth.TriangleConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]service.Stats{}
	for alias, svc := range world.Services() {
		stats[alias] = svc.Stats()
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: 5, Metric: cost.RequestResponse{}, Stats: stats, FixedInterfaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Plan.NodeIDs() {
		if n, _ := res.Plan.Node(id); n.Kind == plan.KindMultiJoin {
			return res.Plan, id
		}
	}
	t.Fatal("optimizer did not choose the multi-way plan for the triangle query")
	return nil, ""
}

// touchesAlias reports whether a cross-branch predicate references the
// alias on either side.
func touchesAlias(p query.Predicate, alias string) bool {
	if p.Left.Alias == alias {
		return true
	}
	return p.Right.Kind == query.TermPath && p.Right.Path.Alias == alias
}

func mutate(t *testing.T, p *plan.Plan, id string, f func(n *plan.Node)) *plan.Plan {
	t.Helper()
	c := p.Clone()
	n, ok := c.Node(id)
	if !ok {
		t.Fatalf("fixture node %q missing", id)
	}
	f(n)
	return c
}

// TestBrokenPlanCorpus drives plancheck over a corpus of deliberately
// broken plans, asserting each is rejected with the documented diagnostic
// code.
func TestBrokenPlanCorpus(t *testing.T) {
	base, _ := movieFixture(t)

	corpus := []struct {
		name string
		code string
		// warnOnly marks violations that degrade gracefully at runtime:
		// they must be diagnosed but do not reject the plan.
		warnOnly bool
		rep      func(t *testing.T) *plancheck.Report
	}{
		{"cycle", plancheck.CodeCycle, false, func(t *testing.T) *plancheck.Report {
			c := base.Clone()
			// R → M closes the loop M → MS → R → M.
			if err := c.Connect("R", "M"); err != nil {
				t.Fatal(err)
			}
			return plancheck.Check(c)
		}},
		{"uncovered-pipe-binding", plancheck.CodeBinding, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "R", func(n *plan.Node) {
				for i := range n.Bindings {
					if n.Bindings[i].Source.Kind == query.BindJoin {
						n.Bindings[i].Source.From.Alias = "Z" // no such upstream service
					}
				}
			})
			return plancheck.Check(c)
		}},
		{"missing-input-binding", plancheck.CodeBinding, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "R", func(n *plan.Node) {
				n.Bindings = nil
			})
			return plancheck.Check(c)
		}},
		{"binding-duplicate-path", plancheck.CodeBinding, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "M", func(n *plan.Node) {
				n.Bindings = append(n.Bindings, n.Bindings[0])
			})
			return plancheck.Check(c)
		}},
		{"self-piped-binding", plancheck.CodeBinding, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "R", func(n *plan.Node) {
				for i := range n.Bindings {
					if n.Bindings[i].Source.Kind == query.BindJoin {
						n.Bindings[i].Source.From.Alias = "R"
					}
				}
			})
			return plancheck.Check(c)
		}},
		{"illegal-strategy", plancheck.CodeStrategy, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "MS", func(n *plan.Node) {
				n.Strategy = join.Strategy{Invocation: join.NestedLoop, H: 0}
			})
			return plancheck.Check(c)
		}},
		{"strategy-on-service-node", plancheck.CodeStrategy, true, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "M", func(n *plan.Node) {
				n.Strategy = join.Strategy{Invocation: join.MergeScan, RatioX: 3, RatioY: 5}
			})
			return plancheck.Check(c)
		}},
		{"join-selectivity-out-of-range", plancheck.CodeStats, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "MS", func(n *plan.Node) {
				n.JoinSelectivity = 1.5
			})
			return plancheck.Check(c)
		}},
		{"invalid-service-stats", plancheck.CodeStats, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "T", func(n *plan.Node) {
				n.Stats.ChunkSize = -1
			})
			return plancheck.Check(c)
		}},
		{"duplicate-alias", plancheck.CodeStructure, false, func(t *testing.T) *plancheck.Report {
			c := mutate(t, base, "T", func(n *plan.Node) {
				n.Alias = "M"
			})
			return plancheck.Check(c)
		}},
		{"join-arity", plancheck.CodeStructure, false, func(t *testing.T) *plancheck.Report {
			p := plan.New(5)
			for _, n := range []*plan.Node{
				{ID: "input", Kind: plan.KindInput},
				{ID: "J", Kind: plan.KindJoin, Strategy: join.Strategy{Invocation: join.MergeScan}, JoinSelectivity: 0.5},
				{ID: "output", Kind: plan.KindOutput},
			} {
				if err := p.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			for _, arc := range [][2]string{{"input", "J"}, {"J", "output"}} {
				if err := p.Connect(arc[0], arc[1]); err != nil {
					t.Fatal(err)
				}
			}
			return plancheck.Check(p)
		}},
		{"join-predicate-within-one-input", plancheck.CodeJoin, false, func(t *testing.T) *plancheck.Report {
			// M on both sides: no M-T row pair would ever evaluate it.
			return plancheck.Check(mutate(t, base, "MS", func(n *plan.Node) {
				preds := append([]query.Predicate(nil), n.JoinPreds...)
				preds[0].Right.Path.Alias = "M"
				n.JoinPreds = preds
			}))
		}},
		{"join-predicate-downstream-alias", plancheck.CodeJoin, false, func(t *testing.T) *plancheck.Report {
			// R is piped from the join's output: neither input produces it.
			return plancheck.Check(mutate(t, base, "MS", func(n *plan.Node) {
				preds := append([]query.Predicate(nil), n.JoinPreds...)
				preds[0].Right.Path.Alias = "R"
				n.JoinPreds = preds
			}))
		}},
		{"multijoin-arity", plancheck.CodeStructure, false, func(t *testing.T) *plancheck.Report {
			// A multi-way join with a single predecessor: n-ary in name
			// only, rejected before the legality rules even apply.
			p := plan.New(5)
			for _, n := range []*plan.Node{
				{ID: "input", Kind: plan.KindInput},
				{ID: "MJ", Kind: plan.KindMultiJoin, JoinSelectivity: 0.5},
				{ID: "output", Kind: plan.KindOutput},
			} {
				if err := p.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			for _, arc := range [][2]string{{"input", "MJ"}, {"MJ", "output"}} {
				if err := p.Connect(arc[0], arc[1]); err != nil {
					t.Fatal(err)
				}
			}
			return plancheck.Check(p)
		}},
		{"multijoin-unbound-branch", plancheck.CodeMultiJoin, false, func(t *testing.T) *plancheck.Report {
			tri, mj := triangleFixture(t)
			c := mutate(t, tri, mj, func(n *plan.Node) {
				// Dropping every predicate that touches P leaves its branch
				// unbound: the intersection would cross-product it.
				kept := n.JoinPreds[:0:0]
				for _, jp := range n.JoinPreds {
					if !touchesAlias(jp, "P") {
						kept = append(kept, jp)
					}
				}
				n.JoinPreds = kept
			})
			return plancheck.Check(c)
		}},
		{"multijoin-illegal-cross-predicate", plancheck.CodeMultiJoin, false, func(t *testing.T) *plancheck.Report {
			tri, mj := triangleFixture(t)
			c := mutate(t, tri, mj, func(n *plan.Node) {
				// `like` is neither an equality nor a bounded proximity, so
				// the node cannot drive a posting-list intersection.
				preds := append([]query.Predicate(nil), n.JoinPreds...)
				preds[0].Op = types.OpLike
				n.JoinPreds = preds
			})
			return plancheck.Check(c)
		}},
		{"multijoin-no-equality-edge", plancheck.CodeMultiJoin, false, func(t *testing.T) *plancheck.Report {
			tri, mj := triangleFixture(t)
			c := mutate(t, tri, mj, func(n *plan.Node) {
				// All-proximity predicate sets have no posting-list key.
				preds := append([]query.Predicate(nil), n.JoinPreds...)
				for i := range preds {
					if preds[i].Op == types.OpEq {
						preds[i].Op = types.OpLe
					}
				}
				n.JoinPreds = preds
			})
			return plancheck.Check(c)
		}},
		{"multijoin-alias-outside-branches", plancheck.CodeMultiJoin, false, func(t *testing.T) *plancheck.Report {
			tri, mj := triangleFixture(t)
			c := mutate(t, tri, mj, func(n *plan.Node) {
				preds := append([]query.Predicate(nil), n.JoinPreds...)
				preds[0].Left.Alias = "Z" // no branch produces Z
				n.JoinPreds = preds
			})
			return plancheck.Check(c)
		}},
		{"strategy-on-multijoin-node", plancheck.CodeStrategy, true, func(t *testing.T) *plancheck.Report {
			tri, mj := triangleFixture(t)
			c := mutate(t, tri, mj, func(n *plan.Node) {
				n.Strategy = join.Strategy{Invocation: join.MergeScan, RatioX: 3, RatioY: 5}
			})
			return plancheck.Check(c)
		}},
		{"nonpositive-k", plancheck.CodeStructure, false, func(t *testing.T) *plancheck.Report {
			p := plan.New(0)
			for _, n := range []*plan.Node{
				{ID: "input", Kind: plan.KindInput},
				{ID: "output", Kind: plan.KindOutput},
			} {
				if err := p.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			if err := p.Connect("input", "output"); err != nil {
				t.Fatal(err)
			}
			return plancheck.Check(p)
		}},
		{"dead-end-node", plancheck.CodeConnectivity, false, func(t *testing.T) *plancheck.Report {
			p := plan.New(5)
			for _, n := range []*plan.Node{
				{ID: "input", Kind: plan.KindInput},
				{ID: "output", Kind: plan.KindOutput},
				{ID: "sigma", Kind: plan.KindSelection, Selectivity: 0.5},
			} {
				if err := p.AddNode(n); err != nil {
					t.Fatal(err)
				}
			}
			for _, arc := range [][2]string{{"input", "output"}, {"input", "sigma"}} {
				if err := p.Connect(arc[0], arc[1]); err != nil {
					t.Fatal(err)
				}
			}
			return plancheck.Check(p)
		}},
		{"fetch-on-join-node", plancheck.CodeFetch, false, func(t *testing.T) *plancheck.Report {
			a, err := plan.Annotate(base, plan.Fig10Fetches())
			if err != nil {
				t.Fatal(err)
			}
			a.Fetches["MS"] = 2
			return plancheck.CheckAnnotated(a)
		}},
		{"fetch-below-one", plancheck.CodeFetch, false, func(t *testing.T) *plancheck.Report {
			a, err := plan.Annotate(base, plan.Fig10Fetches())
			if err != nil {
				t.Fatal(err)
			}
			a.Fetches["M"] = 0
			return plancheck.CheckAnnotated(a)
		}},
		{"stale-annotation", plancheck.CodeFetch, false, func(t *testing.T) *plancheck.Report {
			a, err := plan.Annotate(base, plan.Fig10Fetches())
			if err != nil {
				t.Fatal(err)
			}
			ann := a.Ann["R"]
			ann.Calls *= 7
			a.Ann["R"] = ann
			return plancheck.CheckAnnotated(a)
		}},
		{"negative-weight-with-target-k", plancheck.CodeWeights, false, func(t *testing.T) *plancheck.Report {
			return plancheck.CheckExec(base, plancheck.Exec{
				Weights:   map[string]float64{"M": 1, "T": -0.5},
				TargetK:   5,
				Streaming: true,
			})
		}},
		{"roundtrip-against-wrong-registry", plancheck.CodeRoundTrip, false, func(t *testing.T) *plancheck.Report {
			other, err := mart.TravelScenario()
			if err != nil {
				t.Fatal(err)
			}
			return plancheck.CheckRoundTrip(base, other)
		}},
		{"miscompiled-operator-graph", plancheck.CodeCompile, false, func(t *testing.T) *plancheck.Report {
			// A compiler that dropped every operator and points the root at
			// a node that is not the output's predecessor.
			return plancheck.CheckOpGraph(base, plancheck.OpGraph{Root: "M"})
		}},
	}

	for _, tc := range corpus {
		t.Run(tc.name, func(t *testing.T) {
			rep := tc.rep(t)
			if tc.warnOnly {
				if !rep.OK() {
					t.Fatalf("warning-level violation rejected the plan: %v", rep.Err())
				}
			} else if rep.OK() {
				t.Fatalf("broken plan accepted; diagnostics: %v", rep.Diags)
			}
			if !rep.HasCode(tc.code) {
				t.Fatalf("expected diagnostic code %q, got: %v", tc.code, rep.Diags)
			}
		})
	}
}

// TestWarningsDoNotReject verifies Warning-severity diagnostics leave the
// plan acceptable: a weight for an alias the plan does not produce is
// suspicious but sound.
func TestWarningsDoNotReject(t *testing.T) {
	base, _ := movieFixture(t)
	rep := plancheck.CheckExec(base, plancheck.Exec{
		Weights:   map[string]float64{"M": 1, "ghost": 1},
		TargetK:   5,
		Streaming: true,
	})
	if !rep.OK() {
		t.Fatalf("warning-only report rejected the plan: %v", rep.Err())
	}
	if !rep.HasCode(plancheck.CodeWeights) {
		t.Fatalf("expected a %s warning, got: %v", plancheck.CodeWeights, rep.Diags)
	}
	if len(rep.Errors()) != 0 {
		t.Fatalf("unexpected errors: %v", rep.Errors())
	}
}

// TestFixturePlansPassClean verifies both worked-example fixtures pass
// every check, including annotation consistency and JSON round-trip.
func TestFixturePlansPassClean(t *testing.T) {
	movieReg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	travelReg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	mp, _, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		t.Fatal(err)
	}
	tp, _, err := plan.TravelPlan(travelReg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		p       *plan.Plan
		reg     *mart.Registry
		fetches map[string]int
	}{
		{"running-example", mp, movieReg, plan.Fig10Fetches()},
		{"travel", tp, travelReg, map[string]int{"F": 2, "H": 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := plancheck.Check(tc.p); !rep.OK() {
				t.Errorf("Check: %v", rep.Err())
			}
			a, err := plan.Annotate(tc.p, tc.fetches)
			if err != nil {
				t.Fatal(err)
			}
			if rep := plancheck.CheckAnnotated(a); !rep.OK() {
				t.Errorf("CheckAnnotated: %v", rep.Err())
			}
			if rep := plancheck.CheckRoundTrip(tc.p, tc.reg); !rep.OK() {
				t.Errorf("CheckRoundTrip: %v", rep.Err())
			}
		})
	}
}

// TestRandomizedOptimizerPlansPassClean runs the optimizer over 100
// randomized workload/heuristic configurations and verifies every winning
// plan passes plancheck, round-trips through JSON, and accepts its query's
// ranking weights.
func TestRandomizedOptimizerPlansPassClean(t *testing.T) {
	heuristics := []optimizer.Heuristics{
		{Access: optimizer.BoundIsBetter, Topology: optimizer.SelectiveFirst},
		{Access: optimizer.BoundIsBetter, Topology: optimizer.ParallelIsBetter},
		{Access: optimizer.UnboundIsEasier, Topology: optimizer.SelectiveFirst},
		{Access: optimizer.UnboundIsEasier, Topology: optimizer.ParallelIsBetter},
	}
	metrics := []cost.Metric{cost.RequestResponse{}, cost.ExecutionTime{}}
	checked := 0
	for seed := int64(0); checked < 100; seed++ {
		n := 2 + int(seed%4)
		w, err := synth.RandomWorkload(seed, n)
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(w.QueryText)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := q.Analyze(w.Registry); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		h := heuristics[int(seed)%len(heuristics)]
		m := metrics[int(seed)%len(metrics)]
		res, err := optimizer.Optimize(q, w.Registry, optimizer.Options{
			K: 5 + int(seed%10), Metric: m, Stats: w.Stats,
			Heuristics: h, FixedInterfaces: true, MaxPlans: 60,
		})
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		label := fmt.Sprintf("seed %d n=%d %s/%s", seed, n, h.Access, h.Topology)
		if rep := plancheck.CheckAnnotated(res.Annotated); !rep.OK() {
			t.Errorf("%s: %v", label, rep.Err())
		}
		if rep := plancheck.CheckRoundTrip(res.Plan, w.Registry); !rep.OK() {
			t.Errorf("%s: round trip: %v", label, rep.Err())
		}
		if rep := plancheck.CheckExec(res.Plan, plancheck.Exec{
			Weights: res.Query.Weights, TargetK: res.Plan.K, Streaming: true,
		}); !rep.OK() {
			t.Errorf("%s: exec: %v", label, rep.Err())
		}
		checked++
	}
}

// TestUnmarshalRejectsBrokenJSON verifies the guarded decoding entry
// point: structurally broken JSON plans decode but fail verification.
func TestUnmarshalRejectsBrokenJSON(t *testing.T) {
	_, reg := movieFixture(t)
	// A join node with a single predecessor and a service with no
	// bindings for its required inputs.
	broken := `{
	  "k": 5,
	  "nodes": [
	    {"id": "input", "kind": "input"},
	    {"id": "M", "kind": "service", "alias": "M", "interface": "Movie1",
	     "stats": {"avgCardinality": 10, "chunkSize": 0, "latencyMs": 1, "costPerCall": 1, "scoring": "constant"}},
	    {"id": "output", "kind": "output"}
	  ],
	  "arcs": [["input", "M"], ["M", "output"]]
	}`
	p, rep, err := plancheck.Unmarshal([]byte(broken), reg)
	if err == nil {
		t.Fatal("broken JSON plan accepted")
	}
	if p == nil || rep == nil {
		t.Fatal("Unmarshal should return the decoded plan and report for inspection")
	}
	if !rep.HasCode(plancheck.CodeBinding) {
		t.Fatalf("expected %s diagnostics, got: %v", plancheck.CodeBinding, rep.Diags)
	}
}
