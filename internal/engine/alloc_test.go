package engine

import (
	"context"
	"testing"

	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
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
	// Measured 325 allocs/run steady-state (Go 1.24), with memo-hit
	// fetches and recycled pipe readings allocating nothing; the
	// map-backed runtime sat near 3800. The ceiling leaves ~1.25x headroom
	// for toolchain drift, little enough that one allocation per fetch or
	// per piped invocation trips it. Fidelity accounting is off here, and
	// the nil-recorder fast path must keep it free.
	const ceiling = 410
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

	// A Run of an already prepared plan builds only per-run state, so it
	// must allocate strictly less than an Execute of the same plan — the
	// difference is the verification and compilation Prepare does once —
	// and stay under its own ceiling, so compile work cannot drift back
	// into the run path unnoticed.
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
	// Measured 175 allocs/run; ~1.25x headroom, as above.
	const runCeiling = 220
	if gotRun > runCeiling {
		t.Errorf("steady-state Prepared.Run allocates %.0f objects, ceiling %d", gotRun, runCeiling)
	}
	if gotRun >= got {
		t.Errorf("Prepared.Run allocates %.0f objects, not below the %.0f of an Execute", gotRun, got)
	}
	t.Logf("steady-state Prepared.Run: %.0f allocs (Execute %.0f)", gotRun, got)
}

var inputSink service.Input

// TestInvocationInputAllocs guards the per-invocation input assembly: a
// node without INPUT variables shares its template, a pipe reading's
// first input costs one copy of the template, nothing per bound path, and
// refilling a reused reading's buffer costs nothing.
func TestInvocationInputAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	sp := &svcProg{
		n:     &plan.Node{ID: "X", Alias: "X"},
		in:    service.Input{{Path: "A", Value: types.Int(1)}, {Path: "Key"}},
		pipes: []pipeBind{{pos: 1, slot: 0, from: query.PathRef{Alias: "U", Path: "Id"}}},
	}
	up := types.NewTuple(0.5)
	up.Set("Id", types.Int(7))
	src := &comb{score: 0.5, comps: []*types.Tuple{up, nil}}

	fixed, err := sp.bind(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() { inputSink, _ = sp.bind(nil) }); got != 0 {
		t.Errorf("bind without INPUT variables allocates %.0f objects, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { inputSink, _ = sp.pipeInput(nil, fixed, src) }); got != 1 {
		t.Errorf("pipeInput into a new reading allocates %.0f objects, want 1", got)
	}
	var in service.Input
	if got := testing.AllocsPerRun(100, func() { in, _ = sp.pipeInput(in, fixed, src) }); got != 0 {
		t.Errorf("pipeInput into a reused reading's buffer allocates %.0f objects, want 0", got)
	}
	in, err = sp.pipeInput(in, fixed, src)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := in.Get("Key"); v.IntVal() != 7 {
		t.Errorf("piped Key = %v, want 7", v)
	}
	if v, _ := fixed.Get("Key"); !v.IsNull() {
		t.Errorf("pipeInput wrote into the template: Key = %v", v)
	}
}
