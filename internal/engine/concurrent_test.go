package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/synth"
)

// This file is the concurrent-runtime stress test of the unified operator
// runtime: ONE engine instance, with the Invoker's cross-query sharing
// layer on, executes the movienight and conftravel scenarios from many
// goroutines at once under both driver policies. It asserts what the
// refactor promises:
//
//   - per-run isolation: every run reports exactly the combinations (and,
//     under the drain policy, exactly the call counts) of an isolated
//     reference execution;
//   - sharing coherence: summed over all runs, the logical fetches equal
//     the share layer's wire fetches plus its memo and dedup hits;
//   - the sharing measurably deduplicates: the wire sees strictly fewer
//     request-responses than the runs logically issued.
//
// Run with -race; the per-run counters, the Share layer and the operator
// pipelines are all exercised simultaneously here.

type stressScenario struct {
	name string
	ann  *plan.Annotated
	opts Options
}

func stressFixtures(t *testing.T) (map[string]service.Service, []stressScenario) {
	t.Helper()
	movieReg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	mp, mq, err := plan.RunningExamplePlan(movieReg)
	if err != nil {
		t.Fatal(err)
	}
	movieWorld, err := synth.NewMovieWorld(movieReg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
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
	travelWorld, err := synth.NewTravelWorld(travelReg, synth.TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	ta, err := plan.Annotate(tp, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}

	// One alias namespace: the movie and travel scenarios bind disjoint
	// aliases, so a single engine serves both query shapes at once.
	services := map[string]service.Service{}
	for alias, svc := range movieWorld.Services() {
		services[alias] = svc
	}
	for alias, svc := range travelWorld.Services() {
		services[alias] = svc
	}
	scenarios := []stressScenario{
		{"movienight", ma, Options{Inputs: movieWorld.Inputs, Weights: mq.Weights, TargetK: 5, Parallelism: 4}},
		{"conftravel", ta, Options{Inputs: travelWorld.Inputs, Weights: tq.Weights, TargetK: 5, Parallelism: 4}},
	}
	return services, scenarios
}

func runKeys(run *Run) []string {
	out := make([]string, len(run.Combinations))
	for i, c := range run.Combinations {
		out[i] = c.String()
	}
	return out
}

func TestConcurrentRunsThroughOneEngine(t *testing.T) {
	services, scenarios := stressFixtures(t)

	// References: each (scenario, policy) cell executed alone on an
	// engine without sharing.
	type cell struct {
		keys  []string
		calls map[string]int64
	}
	refs := map[string]cell{}
	for _, sc := range scenarios {
		for _, materialize := range []bool{false, true} {
			opts := sc.opts
			opts.Materialize = materialize
			run, err := New(services, nil).Execute(context.Background(), sc.ann, opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(run.Combinations) == 0 {
				t.Fatalf("%s reference returned nothing", sc.name)
			}
			refs[fmt.Sprintf("%s/%v", sc.name, materialize)] = cell{keys: runKeys(run), calls: run.Calls}
		}
	}

	// The one engine under test: shared Invoker, sharing layer on.
	e := NewWithConfig(services, Config{Share: true})

	const workers = 8
	const iterations = 3
	runs := make([]*Run, workers*iterations)
	names := make([]string, workers*iterations)
	drains := make([]bool, workers*iterations)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				idx := w*iterations + i
				sc := scenarios[idx%len(scenarios)]
				materialize := (idx/len(scenarios))%2 == 0
				opts := sc.opts
				opts.Materialize = materialize
				run, err := e.Execute(context.Background(), sc.ann, opts)
				if err != nil {
					t.Errorf("worker %d run %d (%s): %v", w, i, sc.name, err)
					return
				}
				runs[idx], names[idx], drains[idx] = run, sc.name, materialize
			}
		}(w)
	}
	wg.Wait()

	var logical int64
	for idx, run := range runs {
		if run == nil {
			continue // an Execute error already failed the test
		}
		logical += run.TotalCalls()
		ref := refs[fmt.Sprintf("%s/%v", names[idx], drains[idx])]
		keys := runKeys(run)
		if len(keys) != len(ref.keys) {
			t.Errorf("run %d (%s): %d combinations, reference %d", idx, names[idx], len(keys), len(ref.keys))
			continue
		}
		for i := range keys {
			if keys[i] != ref.keys[i] {
				t.Errorf("run %d (%s): combination %d diverges from the isolated reference", idx, names[idx], i)
				break
			}
		}
		// Call counts replay exactly under the drain policy (the pull
		// policy's trailing prefetches race with the top-k stop, as in the
		// chaos sweep). Sharing must not leak into the logical counts.
		if drains[idx] {
			for alias, want := range ref.calls {
				if run.Calls[alias] != want {
					t.Errorf("run %d (%s): alias %s made %d calls, reference %d",
						idx, names[idx], alias, run.Calls[alias], want)
				}
			}
		}
	}

	st := e.Invoker().ShareStats()
	if got := st.WireFetches + st.MemoHits + st.DedupHits; got != logical {
		t.Errorf("share counters incoherent: wire %d + memo %d + dedup %d = %d, logical fetches %d",
			st.WireFetches, st.MemoHits, st.DedupHits, got, logical)
	}
	if st.WireFetches >= logical {
		t.Errorf("sharing saved nothing: wire %d of %d logical fetches", st.WireFetches, logical)
	}
	if st.Saved() == 0 {
		t.Error("Saved() = 0 across concurrent identical queries")
	}
}

// TestPooledBuffersHammer stresses the compact runtime's shared memory
// machinery — the sync.Pool-backed arena blocks and chunk buffers, and the
// Share memo — with 8 workers looping
// runs through ONE engine. Run with -race. Every iteration recycles the
// previous runs' buffers, so a pooled slice or arena block released while
// still referenced shows up as a corrupted (or racy) combination: each
// run's materialized output must keep matching the isolated reference
// byte for byte.
func TestPooledBuffersHammer(t *testing.T) {
	services, scenarios := stressFixtures(t)
	refs := map[string][]string{}
	for _, sc := range scenarios {
		run, err := New(services, nil).Execute(context.Background(), sc.ann, sc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(run.Combinations) == 0 {
			t.Fatalf("%s reference returned nothing", sc.name)
		}
		refs[sc.name] = runKeys(run)
	}

	e := NewWithConfig(services, Config{Share: true})
	const workers = 8
	const iterations = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				sc := scenarios[(w+i)%len(scenarios)]
				run, err := e.Execute(context.Background(), sc.ann, sc.opts)
				if err != nil {
					t.Errorf("worker %d iter %d (%s): %v", w, i, sc.name, err)
					return
				}
				keys := runKeys(run)
				want := refs[sc.name]
				if len(keys) != len(want) {
					t.Errorf("worker %d iter %d (%s): %d combinations, reference %d",
						w, i, sc.name, len(keys), len(want))
					return
				}
				for j := range keys {
					if keys[j] != want[j] {
						t.Errorf("worker %d iter %d (%s): combination %d diverged:\n got %s\nwant %s",
							w, i, sc.name, j, keys[j], want[j])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
