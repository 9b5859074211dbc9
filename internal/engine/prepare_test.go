package engine

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"sync"
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

// This file tests the prepared-plan lifecycle: one Prepared run many
// times and from many goroutines behaves like a fresh Execute each time,
// every plan Execute refuses is refused at Prepare, and nothing that
// varies per run is decided before Run.

// lifecycleScenario is one plan with the services it runs against and a
// few INPUT bindings to rotate through.
type lifecycleScenario struct {
	name     string
	services map[string]service.Service
	ann      *plan.Annotated
	weights  map[string]float64
	inputs   []map[string]types.Value
}

// withInput returns a copy of the bindings with one variable replaced.
func withInput(base map[string]types.Value, name string, v types.Value) map[string]types.Value {
	out := make(map[string]types.Value, len(base))
	for k, b := range base {
		out[k] = b
	}
	out[name] = v
	return out
}

// triangleFixture optimizes the cyclic triangle query over its seeded
// world; the optimizer picks the multi-way plan.
func triangleFixture(t testing.TB) (*optimizer.Result, *synth.TriangleWorld) {
	t.Helper()
	return triangleFixtureWith(t, 7, false)
}

// triangleFixtureWith optimizes the triangle query over the world of the
// given seed, restricted to binary join trees when binaryOnly is set.
func triangleFixtureWith(t testing.TB, seed int64, binaryOnly bool) (*optimizer.Result, *synth.TriangleWorld) {
	t.Helper()
	reg, err := mart.TriangleScenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.TriangleExample(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTriangleWorld(reg, synth.TriangleConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]service.Stats{}
	for alias, svc := range world.Services() {
		stats[alias] = svc.Stats()
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: 5, Metric: cost.RequestResponse{}, Stats: stats, FixedInterfaces: true,
		DisableMultiway: binaryOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, world
}

// multiJoinID names the plan's multi-way join node.
func multiJoinID(t testing.TB, p *plan.Plan) string {
	t.Helper()
	for _, id := range p.NodeIDs() {
		if n, _ := p.Node(id); n.Kind == plan.KindMultiJoin {
			return id
		}
	}
	t.Fatal("plan has no multi-way join node")
	return ""
}

func lifecycleScenarios(t testing.TB) []lifecycleScenario {
	t.Helper()
	_, mp, mq, movie := fixture(t)
	ma, err := plan.Annotate(mp, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	travelReg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	tp, tq, err := plan.TravelPlan(travelReg)
	if err != nil {
		t.Fatal(err)
	}
	travel, err := synth.NewTravelWorld(travelReg, synth.TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := plan.Annotate(tp, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}
	tri, triangle := triangleFixture(t)
	return []lifecycleScenario{
		{"movienight", movie.Services(), ma, mq.Weights, []map[string]types.Value{
			movie.Inputs,
			withInput(movie.Inputs, "INPUT1", types.String("Drama")),
			withInput(movie.Inputs, "INPUT1", types.String("Thriller")),
		}},
		{"conftravel", travel.Services(), ta, tq.Weights, []map[string]types.Value{
			travel.Inputs,
			withInput(travel.Inputs, "INPUT1", types.String("ai")),
		}},
		{"triangle", triangle.Services(), tri.Annotated, tri.Query.Weights, []map[string]types.Value{
			triangle.Inputs,
			withInput(triangle.Inputs, "INPUT1", types.String("no such festival")),
		}},
	}
}

// TestPreparedConcurrentRuns runs each Prepared from 8 goroutines at once,
// rotating the INPUT bindings and — across the Prepareds of a scenario —
// K. Every run must return the combinations of a fresh Execute with the
// same arguments on an engine of its own; under the drain policy, whose
// call counts replay exactly, Calls and Produced must match too, so no
// run's counters leak into another's. Run with -race.
func TestPreparedConcurrentRuns(t *testing.T) {
	const workers, iterations = 8, 50
	ks := []int{3, 5}
	for _, sc := range lifecycleScenarios(t) {
		for _, materialize := range []bool{false, true} {
			policy := "pull"
			if materialize {
				policy = "drain"
			}
			t.Run(sc.name+"/"+policy, func(t *testing.T) {
				shared := NewWithConfig(sc.services, Config{Share: true})
				preps := make([]*Prepared, len(ks))
				refs := make([][]*Run, len(ks))
				for ki, k := range ks {
					po := PrepareOptions{Weights: sc.weights, TargetK: k, Parallelism: 4, Materialize: materialize}
					p, err := shared.Prepare(sc.ann, po)
					if err != nil {
						t.Fatal(err)
					}
					preps[ki] = p
					for _, in := range sc.inputs {
						ref, err := New(sc.services, nil).Execute(context.Background(), sc.ann, Options{
							Inputs: in, Weights: sc.weights, TargetK: k, Parallelism: 4, Materialize: materialize,
						})
						if err != nil {
							t.Fatal(err)
						}
						refs[ki] = append(refs[ki], ref)
					}
				}
				if len(refs[0][0].Combinations) == 0 {
					t.Fatal("canonical reference returned nothing; the comparison is vacuous")
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < iterations; i++ {
							ki, ii := (w+i)%len(ks), (w+i/len(ks))%len(sc.inputs)
							run, err := preps[ki].Run(context.Background(), RunOptions{Inputs: sc.inputs[ii]})
							if err != nil {
								t.Errorf("worker %d run %d: %v", w, i, err)
								return
							}
							ref := refs[ki][ii]
							if got, want := runKeys(run), runKeys(ref); !reflect.DeepEqual(got, want) {
								t.Errorf("worker %d run %d (k=%d, inputs %d): combinations diverge from a fresh Execute:\n got %v\nwant %v",
									w, i, ks[ki], ii, got, want)
								return
							}
							if !materialize {
								continue
							}
							if !reflect.DeepEqual(run.Calls, ref.Calls) {
								t.Errorf("worker %d run %d: Calls %v, fresh Execute %v", w, i, run.Calls, ref.Calls)
							}
							if !reflect.DeepEqual(run.Produced, ref.Produced) {
								t.Errorf("worker %d run %d: Produced %v, fresh Execute %v", w, i, run.Produced, ref.Produced)
							}
						}
					}(w)
				}
				wg.Wait()
			})
		}
	}
}

// brokenPlans rebuilds the plancheck broken-plan corpus as inputs to
// Prepare: every case plancheck's own tests reject through Check,
// CheckAnnotated or CheckExec — the passes Prepare runs. warnOnly cases
// carry a diagnostic but must still prepare.
func brokenPlans(t *testing.T) []brokenPlan {
	t.Helper()
	_, base, q, _ := fixture(t)
	tri, _ := triangleFixture(t)
	mj := multiJoinID(t, tri.Plan)

	annotated := func(p *plan.Plan) *plan.Annotated {
		// plan.Annotate assumes a valid plan; a broken one travels bare,
		// and Prepare must refuse it before the annotation matters.
		if !plancheck.Check(p).OK() {
			return &plan.Annotated{Plan: p, Ann: map[string]plan.Annotation{}, Fetches: map[string]int{}}
		}
		a, err := plan.Annotate(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	mutate := func(p *plan.Plan, id string, f func(n *plan.Node)) *plan.Annotated {
		c := p.Clone()
		n, ok := c.Node(id)
		if !ok {
			t.Fatalf("fixture node %q missing", id)
		}
		f(n)
		return annotated(c)
	}
	build := func(k int, nodes []*plan.Node, arcs [][2]string) *plan.Annotated {
		p := plan.New(k)
		for _, n := range nodes {
			if err := p.AddNode(n); err != nil {
				t.Fatal(err)
			}
		}
		for _, arc := range arcs {
			if err := p.Connect(arc[0], arc[1]); err != nil {
				t.Fatal(err)
			}
		}
		return annotated(p)
	}
	fig10 := func(f func(a *plan.Annotated)) *plan.Annotated {
		a, err := plan.Annotate(base, plan.Fig10Fetches())
		if err != nil {
			t.Fatal(err)
		}
		f(a)
		return a
	}
	rebindPipe := func(alias string) func(n *plan.Node) {
		return func(n *plan.Node) {
			for i := range n.Bindings {
				if n.Bindings[i].Source.Kind == query.BindJoin {
					n.Bindings[i].Source.From.Alias = alias
				}
			}
		}
	}
	mjPreds := func(f func(preds []query.Predicate) []query.Predicate) *plan.Annotated {
		return mutate(tri.Plan, mj, func(n *plan.Node) {
			n.JoinPreds = f(append([]query.Predicate(nil), n.JoinPreds...))
		})
	}
	// msRight points the right side of the running example's MS predicate
	// at another alias.
	msRight := func(alias string) *plan.Annotated {
		return mutate(base, "MS", func(n *plan.Node) {
			n.JoinPreds = append([]query.Predicate(nil), n.JoinPreds...)
			n.JoinPreds[0].Right.Path.Alias = alias
		})
	}
	touches := func(p query.Predicate, alias string) bool {
		return p.Left.Alias == alias || (p.Right.Kind == query.TermPath && p.Right.Path.Alias == alias)
	}
	pull := PrepareOptions{Weights: q.Weights, TargetK: 5}
	cyclic := base.Clone()
	if err := cyclic.Connect("R", "M"); err != nil {
		t.Fatal(err)
	}

	return []brokenPlan{
		{"cycle", plancheck.CodeCycle, false, annotated(cyclic), pull},
		{"uncovered-pipe-binding", plancheck.CodeBinding, false, mutate(base, "R", rebindPipe("Z")), pull},
		{"missing-input-binding", plancheck.CodeBinding, false,
			mutate(base, "R", func(n *plan.Node) { n.Bindings = nil }), pull},
		{"binding-duplicate-path", plancheck.CodeBinding, false,
			mutate(base, "M", func(n *plan.Node) { n.Bindings = append(n.Bindings, n.Bindings[0]) }), pull},
		{"self-piped-binding", plancheck.CodeBinding, false, mutate(base, "R", rebindPipe("R")), pull},
		{"illegal-strategy", plancheck.CodeStrategy, false, mutate(base, "MS", func(n *plan.Node) {
			n.Strategy = join.Strategy{Invocation: join.NestedLoop, H: 0}
		}), pull},
		{"strategy-on-service-node", plancheck.CodeStrategy, true, mutate(base, "M", func(n *plan.Node) {
			n.Strategy = join.Strategy{Invocation: join.MergeScan, RatioX: 3, RatioY: 5}
		}), pull},
		{"join-predicate-within-one-input", plancheck.CodeJoin, false, msRight("M"), pull},
		{"join-predicate-downstream-alias", plancheck.CodeJoin, false, msRight("R"), pull},
		{"join-selectivity-out-of-range", plancheck.CodeStats, false,
			mutate(base, "MS", func(n *plan.Node) { n.JoinSelectivity = 1.5 }), pull},
		{"invalid-service-stats", plancheck.CodeStats, false,
			mutate(base, "T", func(n *plan.Node) { n.Stats.ChunkSize = -1 }), pull},
		{"duplicate-alias", plancheck.CodeStructure, false,
			mutate(base, "T", func(n *plan.Node) { n.Alias = "M" }), pull},
		{"join-arity", plancheck.CodeStructure, false, build(5, []*plan.Node{
			{ID: "input", Kind: plan.KindInput},
			{ID: "J", Kind: plan.KindJoin, Strategy: join.Strategy{Invocation: join.MergeScan}, JoinSelectivity: 0.5},
			{ID: "output", Kind: plan.KindOutput},
		}, [][2]string{{"input", "J"}, {"J", "output"}}), pull},
		{"multijoin-arity", plancheck.CodeStructure, false, build(5, []*plan.Node{
			{ID: "input", Kind: plan.KindInput},
			{ID: "MJ", Kind: plan.KindMultiJoin, JoinSelectivity: 0.5},
			{ID: "output", Kind: plan.KindOutput},
		}, [][2]string{{"input", "MJ"}, {"MJ", "output"}}), pull},
		{"multijoin-unbound-branch", plancheck.CodeMultiJoin, false, mjPreds(func(preds []query.Predicate) []query.Predicate {
			kept := preds[:0]
			for _, jp := range preds {
				if !touches(jp, "P") {
					kept = append(kept, jp)
				}
			}
			return kept
		}), PrepareOptions{Weights: tri.Query.Weights, TargetK: 5}},
		{"multijoin-illegal-cross-predicate", plancheck.CodeMultiJoin, false, mjPreds(func(preds []query.Predicate) []query.Predicate {
			preds[0].Op = types.OpLike
			return preds
		}), PrepareOptions{Weights: tri.Query.Weights, TargetK: 5}},
		{"multijoin-no-equality-edge", plancheck.CodeMultiJoin, false, mjPreds(func(preds []query.Predicate) []query.Predicate {
			for i := range preds {
				if preds[i].Op == types.OpEq {
					preds[i].Op = types.OpLe
				}
			}
			return preds
		}), PrepareOptions{Weights: tri.Query.Weights, TargetK: 5}},
		{"multijoin-alias-outside-branches", plancheck.CodeMultiJoin, false, mjPreds(func(preds []query.Predicate) []query.Predicate {
			preds[0].Left.Alias = "Z"
			return preds
		}), PrepareOptions{Weights: tri.Query.Weights, TargetK: 5}},
		{"strategy-on-multijoin-node", plancheck.CodeStrategy, true, mutate(tri.Plan, mj, func(n *plan.Node) {
			n.Strategy = join.Strategy{Invocation: join.MergeScan, RatioX: 3, RatioY: 5}
		}), PrepareOptions{Weights: tri.Query.Weights, TargetK: 5}},
		{"nonpositive-k", plancheck.CodeStructure, false, build(0, []*plan.Node{
			{ID: "input", Kind: plan.KindInput},
			{ID: "output", Kind: plan.KindOutput},
		}, [][2]string{{"input", "output"}}), pull},
		{"dead-end-node", plancheck.CodeConnectivity, false, build(5, []*plan.Node{
			{ID: "input", Kind: plan.KindInput},
			{ID: "output", Kind: plan.KindOutput},
			{ID: "sigma", Kind: plan.KindSelection, Selectivity: 0.5},
		}, [][2]string{{"input", "output"}, {"input", "sigma"}}), pull},
		{"fetch-on-join-node", plancheck.CodeFetch, false,
			fig10(func(a *plan.Annotated) { a.Fetches["MS"] = 2 }), pull},
		{"fetch-below-one", plancheck.CodeFetch, false,
			fig10(func(a *plan.Annotated) { a.Fetches["M"] = 0 }), pull},
		{"stale-annotation", plancheck.CodeFetch, false, fig10(func(a *plan.Annotated) {
			ann := a.Ann["R"]
			ann.Calls *= 7
			a.Ann["R"] = ann
		}), pull},
		{"negative-weight-with-target-k", plancheck.CodeWeights, false, fig10(func(*plan.Annotated) {}),
			PrepareOptions{Weights: map[string]float64{"M": 1, "T": -0.5}, TargetK: 5}},
		{"negative-target-k", plancheck.CodeWeights, false, fig10(func(*plan.Annotated) {}),
			PrepareOptions{Weights: q.Weights, TargetK: -1}},
		{"weight-for-unknown-alias", plancheck.CodeWeights, true, fig10(func(*plan.Annotated) {}),
			PrepareOptions{Weights: map[string]float64{"M": 1, "Q": 1}, TargetK: 5}},
		{"degrade-under-drain", plancheck.CodeStructure, true, fig10(func(*plan.Annotated) {}),
			PrepareOptions{Weights: q.Weights, TargetK: 5, Materialize: true, Degrade: true}},
	}
}

type brokenPlan struct {
	name     string
	code     string
	warnOnly bool
	ann      *plan.Annotated
	opts     PrepareOptions
}

// TestPrepareRefusesBrokenPlans checks that every broken plan is refused
// at Prepare with its documented diagnostic code, that Execute reports the
// very same error, that warnings alone do not refuse a plan, and that
// SkipValidate skips exactly these checks.
func TestPrepareRefusesBrokenPlans(t *testing.T) {
	movie, _, _, _ := fixture(t)
	_, triWorld := triangleFixture(t)
	triangle := New(triWorld.Services(), nil)
	for _, tc := range brokenPlans(t) {
		t.Run(tc.name, func(t *testing.T) {
			e := movie
			if strings.HasPrefix(tc.name, "multijoin-") || tc.name == "strategy-on-multijoin-node" {
				e = triangle
			}
			p, err := e.Prepare(tc.ann, tc.opts)
			if tc.warnOnly {
				if err != nil {
					t.Fatalf("warning-level violation refused: %v", err)
				}
				return
			}
			if err == nil || p != nil {
				t.Fatalf("broken plan prepared (err %v)", err)
			}
			if !strings.Contains(err.Error(), "engine: refusing invalid plan") || !strings.Contains(err.Error(), tc.code) {
				t.Fatalf("error %q, want a refusal carrying code %q", err, tc.code)
			}
			opts := Options{
				Weights: tc.opts.Weights, TargetK: tc.opts.TargetK,
				Materialize: tc.opts.Materialize, Degrade: tc.opts.Degrade,
			}
			if _, execErr := e.Execute(context.Background(), tc.ann, opts); execErr == nil || execErr.Error() != err.Error() {
				t.Fatalf("Execute error %v, Prepare error %v — want the same refusal", execErr, err)
			}
		})
	}

	// SkipValidate skips the plancheck passes: a plan they alone object to
	// prepares (and runs — the weight for an absent alias contributes
	// nothing).
	_, base, q, world := fixture(t)
	stale, err := plan.Annotate(base, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	ann := stale.Ann["R"]
	ann.Calls *= 7
	stale.Ann["R"] = ann
	p, err := movie.Prepare(stale, PrepareOptions{Weights: q.Weights, TargetK: 5, SkipValidate: true})
	if err != nil {
		t.Fatalf("SkipValidate still refused: %v", err)
	}
	if _, err := p.Run(context.Background(), RunOptions{Inputs: world.Inputs}); err != nil {
		t.Fatalf("run of an unvalidated plan: %v", err)
	}
}

// TestCompilerRefusesUnspannedJoinPredicate: with plancheck skipped, the
// compiler itself refuses a join predicate its two inputs do not split,
// instead of dropping it and joining the inputs unfiltered.
func TestCompilerRefusesUnspannedJoinPredicate(t *testing.T) {
	e, base, q, _ := fixture(t)
	for _, alias := range []string{"M", "R"} {
		p := base.Clone()
		n, _ := p.Node("MS")
		n.JoinPreds = append([]query.Predicate(nil), n.JoinPreds...)
		n.JoinPreds[0].Right.Path.Alias = alias
		a, err := plan.Annotate(p, plan.Fig10Fetches())
		if err != nil {
			t.Fatal(err)
		}
		_, err = e.Prepare(a, PrepareOptions{Weights: q.Weights, TargetK: 5, SkipValidate: true})
		want := "engine: join MS predicate on M and " + alias + " does not span two branches"
		if err == nil || err.Error() != want {
			t.Errorf("MS predicate on M and %s: Prepare error %v, want %q", alias, err, want)
		}
	}
}

// TestCompilerBindsInputsByPath: the compiler lays a service's input
// template out in path order whatever order the plan lists its bindings
// in, and, with plancheck skipped, refuses a node that binds one path
// twice instead of giving both bindings one position.
func TestCompilerBindsInputsByPath(t *testing.T) {
	e, base, q, world := fixture(t)
	prepare := func(p *plan.Plan, skip bool) (*Prepared, error) {
		a, err := plan.Annotate(p, plan.Fig10Fetches())
		if err != nil {
			t.Fatal(err)
		}
		return e.Prepare(a, PrepareOptions{Weights: q.Weights, TargetK: 5, SkipValidate: skip})
	}
	run := func(p *Prepared) *Run {
		r, err := p.Run(context.Background(), RunOptions{Inputs: world.Inputs})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	ref, err := prepare(base, false)
	if err != nil {
		t.Fatal(err)
	}
	want := run(ref)

	reversed := base.Clone()
	for _, id := range []string{"M", "R"} {
		n, _ := reversed.Node(id)
		if len(n.Bindings) < 2 {
			t.Fatalf("fixture node %s binds %d paths, want several", id, len(n.Bindings))
		}
		slices.Reverse(n.Bindings)
	}
	p, err := prepare(reversed, false)
	if err != nil {
		t.Fatalf("reversed bindings refused: %v", err)
	}
	if got := run(p); !reflect.DeepEqual(runKeys(got), runKeys(want)) || !reflect.DeepEqual(got.Calls, want.Calls) {
		t.Errorf("reversed bindings: %v (calls %v), want %v (calls %v)",
			runKeys(got), got.Calls, runKeys(want), want.Calls)
	}

	dup := base.Clone()
	n, _ := dup.Node("M")
	n.Bindings = append(n.Bindings, n.Bindings[0])
	wantErr := "engine: service M binds input \"" + n.Bindings[0].Path + "\" twice"
	if _, err := prepare(dup, true); err == nil || err.Error() != wantErr {
		t.Errorf("duplicate binding under SkipValidate: Prepare error %v, want %q", err, wantErr)
	}
}

// TestPrepareRefusesMiscompiledPrograms applies to a compiled program the
// mis-compilations plancheck's operator-graph tests describe, and checks
// that the verification Prepare runs over the program's own nodes refuses
// each with the plan-compile code — the nodes Run would instantiate are
// the nodes that were checked.
func TestPrepareRefusesMiscompiledPrograms(t *testing.T) {
	e, base, q, _ := fixture(t)
	a, err := plan.Annotate(base, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	compiled := func(t *testing.T, e *Engine, a *plan.Annotated, w map[string]float64) *Prepared {
		t.Helper()
		p, err := e.Prepare(a, PrepareOptions{Weights: w, TargetK: 5})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.verify(); err != nil {
			t.Fatalf("faithful program refused: %v", err)
		}
		// The mutations below must not reach the engine's copy.
		p.nodes = append([]progNode(nil), p.nodes...)
		return p
	}
	refused := func(t *testing.T, p *Prepared) {
		t.Helper()
		err := p.verify()
		if err == nil {
			t.Fatal("mis-compiled program accepted")
		}
		if !strings.Contains(err.Error(), "refusing mis-compiled operator graph") || !strings.Contains(err.Error(), plancheck.CodeCompile) {
			t.Fatalf("error %q, want a refusal carrying code %q", err, plancheck.CodeCompile)
		}
	}
	firstOf := func(t *testing.T, p *Prepared, kind string) *progNode {
		t.Helper()
		for i := range p.nodes {
			if p.nodes[i].kind == kind {
				return &p.nodes[i]
			}
		}
		t.Fatalf("no %s node in the fixture", kind)
		return nil
	}
	cases := []struct {
		name   string
		mutate func(t *testing.T, p *Prepared)
	}{
		{"missing-operator", func(t *testing.T, p *Prepared) {
			// Drop the root (the last node built) and pull its input.
			p.root = p.nodes[p.root].inputs[0]
			p.nodes = p.nodes[:len(p.nodes)-1]
		}},
		{"duplicate-operator", func(t *testing.T, p *Prepared) {
			p.nodes = append(p.nodes, p.nodes[0])
		}},
		{"wrong-kind", func(t *testing.T, p *Prepared) {
			firstOf(t, p, plancheck.OpScan).kind = plancheck.OpPipe
		}},
		{"wrong-inputs", func(t *testing.T, p *Prepared) {
			pn := firstOf(t, p, plancheck.OpJoin)
			pn.inputs = []int{pn.inputs[1], pn.inputs[0]}
		}},
		{"wrong-sharing", func(t *testing.T, p *Prepared) {
			p.nodes[0].shared = !p.nodes[0].shared
		}},
		{"wrong-root", func(t *testing.T, p *Prepared) {
			p.root = 0
		}},
		{"unknown-node", func(t *testing.T, p *Prepared) {
			p.nodes = append(p.nodes, progNode{id: "ghost", kind: plancheck.OpScan})
		}},
		{"operator-for-output", func(t *testing.T, p *Prepared) {
			p.nodes = append(p.nodes, progNode{id: p.outID, kind: plancheck.OpInput})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := compiled(t, e, a, q.Weights)
			tc.mutate(t, p)
			refused(t, p)
		})
	}
	t.Run("multijoin-lowered-to-binary", func(t *testing.T) {
		tri, world := triangleFixture(t)
		p := compiled(t, New(world.Services(), nil), tri.Annotated, tri.Query.Weights)
		firstOf(t, p, plancheck.OpMultiJoin).kind = plancheck.OpJoin
		refused(t, p)
	})
}

// TestRunRefusesUnboundInput checks the one failure that belongs to Run:
// INPUT variables are bound per run, so a missing one surfaces there, with
// the message Execute has always given — and costs no service call.
func TestRunRefusesUnboundInput(t *testing.T) {
	e, base, q, world := fixture(t)
	a, err := plan.Annotate(base, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	p, err := e.Prepare(a, PrepareOptions{Weights: q.Weights, TargetK: 5})
	if err != nil {
		t.Fatalf("Prepare must not need the inputs: %v", err)
	}
	for name := range world.Inputs {
		short := withInput(world.Inputs, name, types.Null)
		delete(short, name)
		_, err := p.Run(context.Background(), RunOptions{Inputs: short})
		if err == nil || !strings.Contains(err.Error(), "unbound input variable "+name) {
			t.Errorf("run without %s: error %v, want an unbound input variable error", name, err)
		}
	}
	run, err := p.Run(context.Background(), RunOptions{Inputs: world.Inputs})
	if err != nil || len(run.Combinations) == 0 {
		t.Fatalf("the same Prepared with full inputs: %d combinations, %v", len(run.Combinations), err)
	}
}
