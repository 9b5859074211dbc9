package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"testing"

	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// runBoth executes the same annotated plan with the streaming and the
// materializing executor (fresh engines, so counters don't interfere).
func runBoth(t testing.TB, services map[string]service.Service, a *plan.Annotated, opts Options) (stream, mat *Run) {
	t.Helper()
	return runBothOn(t, nil, services, a, opts)
}

// runBothOn is runBoth on engines driven by clk (nil: a VirtualClock).
func runBothOn(t testing.TB, clk Clock, services map[string]service.Service, a *plan.Annotated, opts Options) (stream, mat *Run) {
	t.Helper()
	sOpts, mOpts := opts, opts
	sOpts.Materialize = false
	mOpts.Materialize = true
	var err error
	stream, err = New(services, clk).Execute(context.Background(), a, sOpts)
	if err != nil {
		t.Fatalf("streaming execute: %v", err)
	}
	mat, err = New(services, clk).Execute(context.Background(), a, mOpts)
	if err != nil {
		t.Fatalf("materializing execute: %v", err)
	}
	return stream, mat
}

// scoreSig renders the result scores as a sorted multiset signature.
func scoreSig(combos []*types.Combination) []float64 {
	out := make([]float64, len(combos))
	for i, c := range combos {
		out[i] = c.Score
	}
	sort.Float64s(out)
	return out
}

func sameScores(t *testing.T, label string, stream, mat []*types.Combination) {
	t.Helper()
	ss, ms := scoreSig(stream), scoreSig(mat)
	if len(ss) != len(ms) {
		t.Fatalf("%s: streaming returned %d combinations, materializing %d", label, len(ss), len(ms))
	}
	for i := range ss {
		if math.Abs(ss[i]-ms[i]) > 1e-9 {
			t.Fatalf("%s: score multiset differs at %d: %v vs %v", label, i, ss[i], ms[i])
		}
	}
}

func callsNoWorse(t *testing.T, label string, stream, mat *Run) {
	t.Helper()
	if stream.TotalCalls() > mat.TotalCalls() {
		t.Errorf("%s: streaming issued %d request-responses, materializing %d",
			label, stream.TotalCalls(), mat.TotalCalls())
	}
}

// A full drain of the streaming pipeline must reproduce the materializing
// executor's result set exactly (same combinations, same emission-derived
// order after ranking) on the running example.
func TestStreamingFullDrainMatchesMaterializingMovieNight(t *testing.T) {
	e, p, q, world := fixture(t)
	_ = e
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Inputs: world.Inputs, Weights: q.Weights}
	stream, mat := runBoth(t, world.Services(), a, opts)
	sameScores(t, "movienight full drain", stream.Combinations, mat.Combinations)
	callsNoWorse(t, "movienight full drain", stream, mat)
	if stream.Halted {
		t.Error("full drain reported Halted")
	}
	// Component-level identity, not just scores.
	sigs := map[string]int{}
	for _, c := range mat.Combinations {
		sigs[comboKey(c)]++
	}
	for _, c := range stream.Combinations {
		sigs[comboKey(c)]--
	}
	for k, n := range sigs {
		if n != 0 {
			t.Errorf("combination sets differ (%+d): %s", n, k)
		}
	}
}

// Same equivalence on the travel plan, which exercises pipes, selections,
// fan-out shared ancestors and a rectangular join.
func TestStreamingFullDrainMatchesMaterializingTravel(t *testing.T) {
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
	opts := Options{Inputs: world.Inputs, Weights: q.Weights}
	stream, mat := runBoth(t, world.Services(), a, opts)
	sameScores(t, "travel full drain", stream.Combinations, mat.Combinations)
	callsNoWorse(t, "travel full drain", stream, mat)
}

// With a TargetK the streaming engine must return the same top-K score
// multiset as the materializing path at every K, never spending more
// request-responses.
func TestStreamingTopKMatchesMaterializing(t *testing.T) {
	_, p, q, world := fixture(t)
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2, 3, 5, 10, 25} {
		opts := Options{Inputs: world.Inputs, Weights: q.Weights, TargetK: k}
		stream, mat := runBoth(t, world.Services(), a, opts)
		label := fmt.Sprintf("movienight K=%d", k)
		sameScores(t, label, stream.Combinations, mat.Combinations)
		callsNoWorse(t, label, stream, mat)
		t.Logf("%s: streaming %d calls (halted=%v, saved=%.1f), materializing %d",
			label, stream.TotalCalls(), stream.Halted, stream.CallsSaved, mat.TotalCalls())
	}
}

// The acceptance criterion of the streaming executor: on the reference
// 3-service scenario with TargetK=5 it issues at least 30% fewer
// request-responses than the materializing engine while returning an
// identical top-5 combination set.
func TestStreamingTopKSavesCalls(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	// The chapter's world sizes (200 movies, 50 theatres — matching the
	// published curves) with a denser billboard, so the Shows join yields
	// a search space deep enough that draining it all is visibly wasteful.
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7, TitlesPerTheatre: 16})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Inputs: world.Inputs, Weights: q.Weights, TargetK: 5, Parallelism: 4}
	stream, mat := runBoth(t, world.Services(), a, opts)

	// Identical top-5 set (component identity, order included).
	if len(stream.Combinations) != len(mat.Combinations) {
		t.Fatalf("result sizes differ: %d vs %d", len(stream.Combinations), len(mat.Combinations))
	}
	for i := range stream.Combinations {
		if comboKey(stream.Combinations[i]) != comboKey(mat.Combinations[i]) {
			t.Errorf("top-5 differs at rank %d:\n  streaming    %s\n  materializing %s",
				i, comboKey(stream.Combinations[i]), comboKey(mat.Combinations[i]))
		}
	}

	sc, mc := stream.TotalCalls(), mat.TotalCalls()
	t.Logf("streaming: %d calls %v (halted=%v), materializing: %d calls %v",
		sc, stream.Calls, stream.Halted, mc, mat.Calls)
	if !stream.Halted {
		t.Error("streaming engine did not halt early")
	}
	if float64(sc) > 0.7*float64(mc) {
		t.Errorf("streaming issued %d request-responses, want ≤ 70%% of materializing's %d", sc, mc)
	}
}

// The streaming engine must agree with the materializing engine on
// optimizer-produced plans over randomized workloads, both full-drain and
// top-K, on a VirtualClock and on a clock that waits (the latter
// exercises the pipeline's look-ahead and prefetch goroutines under
// -race).
func TestStreamingMatchesMaterializingOnRandomWorkloads(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			n := 2 + int(seed%4)
			w, err := synth.RandomWorkload(seed, n)
			if err != nil {
				t.Fatal(err)
			}
			q, err := query.Parse(w.QueryText)
			if err != nil {
				t.Fatal(err)
			}
			if err := q.Analyze(w.Registry); err != nil {
				t.Fatal(err)
			}
			res, err := optimizer.Optimize(q, w.Registry, optimizer.Options{
				K: 5, Stats: w.Stats, FixedInterfaces: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{0, 3} {
				for _, clk := range []Clock{nil, &yieldClock{}} {
					opts := Options{Inputs: w.Inputs, Weights: q.Weights, TargetK: k}
					stream, mat := runBothOn(t, clk, w.Services(), res.Annotated, opts)
					label := fmt.Sprintf("K=%d on %T", k, clk)
					sameScores(t, label, stream.Combinations, mat.Combinations)
					callsNoWorse(t, label, stream, mat)
				}
			}
		})
	}
}

// The empty-upstream bugfix: when every upstream combination is filtered
// out before a non-piped service node, the service must not be invoked at
// all — under both executors.
func TestServiceNotInvokedOnEmptyUpstream(t *testing.T) {
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.TravelPlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Make the weather selection unsatisfiable so sigma emits nothing and
	// the downstream Flight/Hotel services have an empty upstream.
	sigma, _ := p.Node("sigma")
	sigma.Selections = []query.Predicate{{
		Left:  query.PathRef{Alias: "W", Path: "AvgTemp"},
		Op:    types.OpGt,
		Right: query.Term{Kind: query.TermConst, Const: types.Float(1000)},
	}}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Annotate(p, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, materialize := range []bool{false, true} {
		run, err := New(world.Services(), nil).Execute(context.Background(), a, Options{
			Inputs: world.Inputs, Weights: q.Weights, Materialize: materialize,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Combinations) != 0 {
			t.Errorf("materialize=%v: unsatisfiable selection produced %d combinations",
				materialize, len(run.Combinations))
		}
		if run.Calls["F"] != 0 || run.Calls["H"] != 0 {
			t.Errorf("materialize=%v: services invoked on empty upstream: F=%d H=%d",
				materialize, run.Calls["F"], run.Calls["H"])
		}
	}
}

// DefaultChunkSize must reach the join re-chunking (observable through the
// result set staying correct and the option not being ignored — a size of
// 1 changes the tile structure drastically but not the full-drain output).
func TestDefaultChunkSizeOption(t *testing.T) {
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
	base := Options{Inputs: world.Inputs, Weights: q.Weights, Materialize: true}
	def, err := New(world.Services(), nil).Execute(context.Background(), a, base)
	if err != nil {
		t.Fatal(err)
	}
	small := base
	small.DefaultChunkSize = 1
	tiny, err := New(world.Services(), nil).Execute(context.Background(), a, small)
	if err != nil {
		t.Fatal(err)
	}
	sameScores(t, "default chunk size", tiny.Combinations, def.Combinations)
}
