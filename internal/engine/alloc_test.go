package engine

import (
	"context"
	"runtime"
	"testing"
	"time"

	"seco/internal/cost"
	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// TestPullDriverAllocsBounded is the allocation-regression guard of the
// compact runtime: a steady-state pull execution (pools warm, chunks
// memoized by the Share layer) must stay under a fixed allocs-per-run
// ceiling. The ceiling has headroom over the measured value, but sits far
// below what the map-backed runtime allocated, so reintroducing per-comb
// maps, per-pull boxing or per-chunk buffers trips it.
func TestPullDriverAllocsBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	_, p, q, world := fixture(t)
	e := NewWithConfig(world.Services(), Config{Share: true})
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	runWith := func(fid bool) func() {
		opts := Options{Inputs: world.Inputs, Weights: q.Weights, TargetK: 5, Fidelity: fid}
		return func() {
			r, err := e.Execute(context.Background(), a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Combinations) == 0 {
				t.Fatal("pull run returned nothing")
			}
		}
	}
	run := runWith(false)
	// Warm the share memo and the buffer pools: the regression guard is
	// about the steady-state hot loop, not first-run cache misses.
	run()
	run()
	got := testing.AllocsPerRun(10, run)
	// Measured 295 allocs/run steady-state (Go 1.24), with memo-hit
	// fetches, pooled pipe readings and pooled-buffer puts allocating
	// nothing; the map-backed runtime sat near 3800. The ceiling leaves
	// ~1.25x headroom for toolchain drift, little enough that one
	// allocation per fetch or per piped invocation trips it. Fidelity
	// accounting is off here, and the nil-recorder fast path must keep it
	// free.
	const ceiling = 365
	if got > ceiling {
		t.Errorf("steady-state pull run allocates %.0f objects, ceiling %d", got, ceiling)
	}
	t.Logf("steady-state pull run: %.0f allocs", got)

	// With fidelity scored, the extra cost is one recorder slab, the
	// actuals slice and the report — a fixed per-run sum, nothing
	// per-tuple. Bound the delta tightly so a counter allocation sneaking
	// into Next trips the guard.
	scored := runWith(true)
	scored()
	gotScored := testing.AllocsPerRun(10, scored)
	const fidelityBudget = 150
	if gotScored > got+fidelityBudget {
		t.Errorf("fidelity-scored pull run allocates %.0f objects, disabled %.0f + budget %d",
			gotScored, got, fidelityBudget)
	}
	t.Logf("fidelity-scored pull run: %.0f allocs (+%.0f)", gotScored, gotScored-got)

	// A Run of an already prepared plan reuses the operator graph an
	// earlier Run left, so it must allocate strictly less than an Execute
	// of the same plan — the difference is the verification, compilation
	// and graph building done once — and stay under its own ceiling, so
	// neither compile work nor graph building can drift back into the run
	// path unnoticed.
	prep, err := e.Prepare(a, PrepareOptions{Weights: q.Weights, TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	prepared := func() {
		r, err := prep.Run(context.Background(), RunOptions{Inputs: world.Inputs})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Combinations) == 0 {
			t.Fatal("prepared run returned nothing")
		}
	}
	prepared()
	gotRun := testing.AllocsPerRun(10, prepared)
	// Measured 83 allocs/run; 137 while every Run built its own graph,
	// counting scope and bound inputs. ~1.25x headroom, as above.
	const runCeiling = 104
	if gotRun > runCeiling {
		t.Errorf("steady-state Prepared.Run allocates %.0f objects, ceiling %d", gotRun, runCeiling)
	}
	if gotRun >= got {
		t.Errorf("Prepared.Run allocates %.0f objects, not below the %.0f of an Execute", gotRun, got)
	}
	t.Logf("steady-state Prepared.Run: %.0f allocs (Execute %.0f)", gotRun, got)
}

// conftravelRun returns one top-5 Prepared.Run of the hand-built
// conftravel plan, whose F‖H join runs under the explorer, its services
// behind the Share layer or not.
func conftravelRun(t testing.TB, share bool) func() {
	t.Helper()
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.TravelPlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Annotate(p, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}
	return top5Run(t, NewWithConfig(world.Services(), Config{Share: share}), a, q.Weights, world.Inputs)
}

// servedConftravelRun is conftravelRun on the plan a server chooses, the
// chain C → W → F → H, with call sharing off.
func servedConftravelRun(t testing.TB) func() {
	t.Helper()
	res, world := servedConftravel(t, 5)
	return top5Run(t, NewWithConfig(world.Services(), Config{}), res.Annotated, res.Query.Weights, world.Inputs)
}

// top5Run prepares a for a top-5 pull on e and returns one Run of it,
// which must deliver 5 combinations.
func top5Run(t testing.TB, e *Engine, a *plan.Annotated, weights map[string]float64, inputs map[string]types.Value) func() {
	t.Helper()
	prep, err := e.Prepare(a, PrepareOptions{Weights: weights, TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		r, err := prep.Run(context.Background(), RunOptions{Inputs: inputs})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Combinations) != 5 {
			t.Fatalf("%d results, want 5", len(r.Combinations))
		}
	}
}

// BenchmarkPreparedRunConftravel is one steady-state top-5 Prepared.Run
// of conftravel with call sharing off, so every call reaches
// service.Table: the operator loops, invoker stack and substrate a
// Share-off server runs per request, without HTTP, admission or planning.
// chain is the served plan C → W → F → H, three pipes; parallel is the
// hand-built plan, whose F‖H join runs under the explorer.
func BenchmarkPreparedRunConftravel(b *testing.B) {
	for _, c := range []struct {
		name string
		run  func(testing.TB) func()
	}{
		{"chain", servedConftravelRun},
		{"parallel", func(tb testing.TB) func() { return conftravelRun(tb, false) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			run := c.run(b)
			run() // freezes the tables and warms the pools
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// TestPullRunAllocBytes pins what the buffer pools buy. Allocation counts
// do not see them: with every pool replaced by make, each buffer is still
// one allocation, only a larger one. So a steady-state conftravel pull run
// (pools warm, chunks memoized by the Share layer) must stay under a
// bytes-per-run ceiling.
func TestPullRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	kb := steadyRunKB(conftravelRun(t, true))
	// Measured 5.1 KB per run (Go 1.24); 11.4 KB while every run built
	// its own operator graph, 17.7 KB while the explorer kept its
	// processed tiles in a map, 24.3 KB before pipe readings were pooled.
	// With the chunk-buffer pools replaced by make it measured 46.5 KB,
	// and with the arena block pools replaced too, 250 KB; the ceiling
	// leaves ~1.3x headroom.
	const ceiling = 6.6
	if kb > ceiling {
		t.Errorf("steady-state conftravel pull run allocates %.1f KB, ceiling %.1f KB", kb, ceiling)
	}
	t.Logf("steady-state conftravel pull run: %.1f KB", kb)
}

// TestShareOffRunAllocBytes is TestPullRunAllocBytes without the Share
// layer, the path a server with sharing off serves: every piped call
// reaches service.Table, so what an invocation allocates there counts on
// every run.
func TestShareOffRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	kb := steadyRunKB(conftravelRun(t, false))
	// Measured 6.0 KB per run (Go 1.24); 12.3 KB while every run built its
	// own operator graph, 18.7 KB while the explorer kept its processed
	// tiles in a map, 31.8 KB while each Table invocation copied its match
	// list and pipe readings were not pooled. The ceiling leaves ~1.3x
	// headroom.
	const ceiling = 7.8
	if kb > ceiling {
		t.Errorf("steady-state Share-off conftravel run allocates %.1f KB, ceiling %.1f KB", kb, ceiling)
	}
	t.Logf("steady-state Share-off conftravel run: %.1f KB", kb)
}

// TestTriangleRunAllocBytes is TestPullRunAllocBytes on the triangle's
// multi-way join, whose edges' posting maps a reused graph keeps: a
// branch holds 15–20 rows, so a map pre-sized for more costs bytes and no
// time.
func TestTriangleRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	tri, world := triangleFixture(t)
	prep, err := NewWithConfig(world.Services(), Config{Share: true}).Prepare(tri.Annotated,
		PrepareOptions{Weights: tri.Query.Weights, TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	run := func() {
		r, err := prep.Run(context.Background(), RunOptions{Inputs: world.Inputs})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Combinations) == 0 {
			t.Fatal("triangle run returned nothing")
		}
	}
	kb := steadyRunKB(run)
	// Measured 3.9 KB per run (Go 1.24); 10.2 KB while every run built
	// its own operator graph and posting maps; with each hashable edge's
	// two posting maps pre-sized for 64 keys, as they once were, 29.2 KB.
	// The ceiling leaves ~1.3x headroom.
	const ceiling = 5.1
	if kb > ceiling {
		t.Errorf("steady-state triangle run allocates %.1f KB, ceiling %.1f KB", kb, ceiling)
	}
	t.Logf("steady-state triangle run: %.1f KB", kb)
}

// steadyRunKB returns the KB one call of run allocates once the share
// memo and the buffer pools are warm, averaged over 50 calls.
func steadyRunKB(run func()) float64 {
	run() // warm the share memo
	runtime.GC()
	run() // refill the pools the collection emptied
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024
}

// combFlowPlan is the fixture of TestOperatorAllocsPerComb: every comb a
// ranked scan X (n tuples) emits crosses every operator kind once.
//
//	input → X → all (selection keeping every X, fanned out through tees)
//	all → P, all → Q (pipes keyed on X.Key, one tuple per key)
//	P, Q → PQ (equality join) → worst (selection keeping X's last five) → output
//
// The pull driver cannot certify the five worst-ranked combinations before
// X is exhausted, so a top-5 run drains all n combs through the graph
// while materializing only five results.
func combFlowPlan(t *testing.T, n int) *Prepared {
	t.Helper()
	x, err := synth.NewRanked(synth.RankedConfig{Name: "X", N: n, KeyMod: n, Stats: service.Stats{
		AvgCardinality: float64(n), ChunkSize: 20, CostPerCall: 1, Scoring: service.Linear(n),
	}})
	if err != nil {
		t.Fatal(err)
	}
	services := map[string]service.Service{"X": x}
	pipe := func(alias string) *plan.Node {
		tab, err := synth.NewKeyed(alias, n, 1, service.Stats{AvgCardinality: 1, CostPerCall: 1, Scoring: service.Linear(1)})
		if err != nil {
			t.Fatal(err)
		}
		services[alias] = tab
		from := query.BindingSource{Kind: query.BindJoin, Op: types.OpEq, From: query.PathRef{Alias: "X", Path: "Key"}}
		return &plan.Node{ID: alias, Kind: plan.KindService, Alias: alias, Interface: tab.Interface(),
			Stats: tab.Stats(), PipeSelectivity: 1, Bindings: []query.InputBinding{{Path: "Key", Source: from}}}
	}
	pred := func(l query.PathRef, op types.Op, r query.Term) []query.Predicate {
		return []query.Predicate{{Left: l, Op: op, Right: r}}
	}
	xPosAtLeast := func(v int) []query.Predicate {
		return pred(query.PathRef{Alias: "X", Path: "Pos"}, types.OpGe, query.Term{Kind: query.TermConst, Const: types.Int(int64(v))})
	}
	p := plan.New(5)
	for _, nd := range []*plan.Node{
		{ID: "input", Kind: plan.KindInput},
		{ID: "output", Kind: plan.KindOutput},
		{ID: "X", Kind: plan.KindService, Alias: "X", Interface: x.Interface(), Stats: x.Stats()},
		{ID: "all", Kind: plan.KindSelection, Selections: xPosAtLeast(0), Selectivity: 1},
		pipe("P"), pipe("Q"),
		{ID: "PQ", Kind: plan.KindJoin, JoinSelectivity: 1,
			Strategy:  join.Strategy{Invocation: join.MergeScan, Completion: join.Rectangular},
			JoinPreds: pred(query.PathRef{Alias: "P", Path: "Key"}, types.OpEq, query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "Q", Path: "Key"}})},
		{ID: "worst", Kind: plan.KindSelection, Selections: xPosAtLeast(n - 5), Selectivity: 5 / float64(n)},
	} {
		if err := p.AddNode(nd); err != nil {
			t.Fatal(err)
		}
	}
	for _, arc := range [][2]string{
		{"input", "X"}, {"X", "all"}, {"all", "P"}, {"all", "Q"},
		{"P", "PQ"}, {"Q", "PQ"}, {"PQ", "worst"}, {"worst", "output"},
	} {
		if err := p.Connect(arc[0], arc[1]); err != nil {
			t.Fatal(err)
		}
	}
	a, err := plan.Annotate(p, map[string]int{"X": (n + 19) / 20})
	if err != nil {
		t.Fatal(err)
	}
	prep, err := NewWithConfig(services, Config{Share: true}).Prepare(a,
		PrepareOptions{Weights: map[string]float64{"X": 1, "P": 0.5, "Q": 0.5}, TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	return prep
}

// TestOperatorAllocsPerComb guards every operator's Next against
// per-combination allocations — a map literal, a fmt.Sprintf, a boxed
// value — in serviceOp, multiJoinOp, selectionOp, teeOp and the countedOp
// around each of them. It measures steady-state allocations of the same
// plan at two sizes: the difference per added X tuple is what the graph
// allocates per comb, free of every fixed per-run cost (which
// TestPullDriverAllocsBounded bounds). Each operator kind emits at least
// one more comb per added tuple, so one allocation per comb in any Next
// lifts the slope by at least 1, more than twice the ceiling's headroom.
func TestOperatorAllocsPerComb(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	const small, large = 100, 200
	measure := func(n int) (float64, map[string]int) {
		prep := combFlowPlan(t, n)
		var r *Run
		run := func() {
			var err error
			if r, err = prep.Run(context.Background(), RunOptions{}); err != nil {
				t.Fatal(err)
			}
			if len(r.Combinations) != 5 {
				t.Fatalf("n=%d: %d results, want 5", n, len(r.Combinations))
			}
		}
		run() // warm the share memo and the buffer pools
		allocs := testing.AllocsPerRun(50, run)
		// Combs each operator kind handed out, tees counted by the fan-out
		// node whose every comb they deliver.
		emitted := map[string]int{}
		for _, pn := range prep.nodes {
			kind := pn.kind
			if kind == plancheck.OpPipe {
				kind = plancheck.OpScan
			}
			emitted[kind] += r.Produced[pn.id]
			emitted["counted"] += r.Produced[pn.id]
			if pn.shared {
				emitted["tee"] += r.Produced[pn.id]
			}
		}
		return allocs, emitted
	}
	a0, e0 := measure(small)
	a1, e1 := measure(large)
	for _, kind := range []string{plancheck.OpScan, plancheck.OpJoin, plancheck.OpSelection, "tee", "counted"} {
		if grew := e1[kind] - e0[kind]; grew < large-small {
			t.Errorf("%s operators emit %d more combs at n=%d than at n=%d, want at least %d: the fixture no longer exercises them",
				kind, grew, large, small, large-small)
		}
	}
	perComb := (a1 - a0) / (large - small)
	// Measured 6.07 allocs per X tuple (Go 1.24), none in a Next: per pipe
	// invocation (two per tuple) the Counter's and Share's invocation
	// handles, plus the join's posting-list growth. A pool put that boxes
	// its buffer again adds one per pipe invocation, two per tuple.
	const ceiling = 6.5
	if perComb > ceiling {
		t.Errorf("the operator graph allocates %.2f objects per comb (%.0f at n=%d, %.0f at n=%d), ceiling %.1f",
			perComb, a0, small, a1, large, ceiling)
	}
	t.Logf("%.2f allocs per comb (%.0f at n=%d, %.0f at n=%d)", perComb, a0, small, a1, large)
}

var inputSink service.Input

// TestInvocationInputAllocs guards the per-invocation input assembly:
// binding a run's INPUT values into the operator's own copy of the
// template costs nothing, a pipe reading's first input costs one copy of
// the fixed input, nothing per bound path, and refilling a reused
// reading's buffer costs nothing.
func TestInvocationInputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	sp := &svcProg{
		n:      &plan.Node{ID: "X", Alias: "X"},
		in:     service.Input{{Path: "A"}, {Path: "Key"}},
		inputs: []inputBind{{pos: 0, input: "INPUT1"}},
		pipes:  []pipeBind{{pos: 1, slot: 0, from: query.PathRef{Alias: "U", Path: "Id"}}},
	}
	inputs := map[string]types.Value{"INPUT1": types.Int(1)}
	up := types.NewTuple(0.5)
	up.Set("Id", types.Int(7))
	src := &comb{score: 0.5, comps: []*types.Tuple{up, nil}}

	fixed := sp.in.Clone()
	if err := sp.bind(fixed, inputs); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { _ = sp.bind(fixed, inputs) }); got != 0 {
		t.Errorf("binding INPUT values allocates %.0f objects, want 0", got)
	}
	if v, _ := fixed.Get("A"); v.IntVal() != 1 {
		t.Errorf("bound A = %v, want 1", v)
	}
	if v, _ := sp.in.Get("A"); !v.IsNull() {
		t.Errorf("bind wrote into the template: A = %v", v)
	}
	if got := testing.AllocsPerRun(100, func() { inputSink, _ = sp.pipeInput(nil, fixed, src) }); got != 1 {
		t.Errorf("pipeInput into a new reading allocates %.0f objects, want 1", got)
	}
	var in service.Input
	if got := testing.AllocsPerRun(100, func() { in, _ = sp.pipeInput(in, fixed, src) }); got != 0 {
		t.Errorf("pipeInput into a reused reading's buffer allocates %.0f objects, want 0", got)
	}
	in, err := sp.pipeInput(in, fixed, src)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Get("Key"); v.IntVal() != 7 {
		t.Errorf("piped Key = %v, want 7", v)
	}
	if v, _ := fixed.Get("Key"); !v.IsNull() {
		t.Errorf("pipeInput wrote into the fixed input: Key = %v", v)
	}
}

// servedMovienightRun returns one Prepared.Run of the running example as
// a server answers it: the plan the optimizer chooses for a top-10, on an
// engine with call sharing, hedging and metrics, prepared to degrade, and
// run under a budget that never binds.
func servedMovienightRun(t testing.TB) func() {
	t.Helper()
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.RunningExample(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]service.Stats{}
	for alias, svc := range world.Services() {
		stats[alias] = svc.Stats()
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: 10, Metric: cost.RequestResponse{}, Stats: stats, FixedInterfaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewWithConfig(world.Services(), Config{Share: true, Metrics: obs.NewRegistry(), Hedge: &service.HedgePolicy{}})
	prep, err := e.Prepare(res.Annotated, PrepareOptions{
		Weights: res.Query.Weights, TargetK: 10, Parallelism: 4, Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return func() {
		r, err := prep.Run(context.Background(), RunOptions{
			Inputs: world.Inputs, Budget: time.Hour, BudgetReason: DegradeDeadline,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Combinations) == 0 || r.Degraded != nil {
			t.Fatalf("%d results, degraded %v", len(r.Combinations), r.Degraded)
		}
	}
}

// TestMovienightRunAllocBytes is TestPullRunAllocBytes on the request a
// movienight server answers most: a top-10 of the running example whose
// every chunk the Share layer has memoized, so what a run allocates is
// almost all per-run state.
func TestMovienightRunAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	kb := steadyRunKB(servedMovienightRun(t))
	// Measured 2.4 KB per run (Go 1.24), most of it the Run handed back
	// (its counter maps and the materialized combinations); 7.5 KB while
	// every run built its own operator graph, counting scope and bound
	// inputs. The ceiling leaves ~1.3x headroom.
	const ceiling = 3.1
	if kb > ceiling {
		t.Errorf("steady-state movienight run allocates %.1f KB, ceiling %.1f KB", kb, ceiling)
	}
	t.Logf("steady-state movienight run: %.1f KB", kb)
}
