package engine

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"seco/internal/obs"
)

// This file tests the reuse of a Prepared's operator graphs: every run on
// a graph an earlier run has used must equal a run on a freshly built
// graph, whatever the earlier runs did.

// reuseCase is one run of a reuse sequence.
type reuseCase struct {
	inputs   int // index into the scenario's input bindings
	trace    bool
	fidelity bool
	budget   time.Duration
	cancel   bool
}

func (c reuseCase) String() string {
	return fmt.Sprintf("inputs %d trace %v fidelity %v budget %v cancelled %v",
		c.inputs, c.trace, c.fidelity, c.budget, c.cancel)
}

// reuseRun runs p once under c; the trace is nil unless c.trace.
func reuseRun(p *Prepared, sc lifecycleScenario, c reuseCase) (*Run, *obs.Tracer, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c.cancel {
		cancel()
	}
	opts := RunOptions{Inputs: sc.inputs[c.inputs], Budget: c.budget, Fidelity: c.fidelity}
	if c.trace {
		opts.Trace = obs.NewTracer()
	}
	run, err := p.Run(ctx, opts)
	return run, opts.Trace, err
}

// freshRun runs c on a graph no run has used: the first run of a new
// engine configured by cfg.
func freshRun(t *testing.T, sc lifecycleScenario, cfg Config, po PrepareOptions, c reuseCase) (*Run, *obs.Tracer, error) {
	t.Helper()
	p, err := NewWithConfig(sc.services, cfg).Prepare(sc.ann, po)
	if err != nil {
		t.Fatal(err)
	}
	return reuseRun(p, sc, c)
}

// sameRun reports how got differs from want: the error, the ranked
// combinations with their scores, Calls, Invocations, Produced, Halted,
// the degradation report and the fidelity report.
func sameRun(got, want *Run, gotErr, wantErr error) string {
	switch {
	case (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error():
		return fmt.Sprintf("error %v, fresh graph %v", gotErr, wantErr)
	case gotErr != nil:
		return ""
	case !reflect.DeepEqual(runKeys(got), runKeys(want)):
		return fmt.Sprintf("combinations\n%v\nfresh graph\n%v", runKeys(got), runKeys(want))
	case !reflect.DeepEqual(got.Calls, want.Calls):
		return fmt.Sprintf("Calls %v, fresh graph %v", got.Calls, want.Calls)
	case !reflect.DeepEqual(got.Invocations, want.Invocations):
		return fmt.Sprintf("Invocations %v, fresh graph %v", got.Invocations, want.Invocations)
	case !reflect.DeepEqual(got.Produced, want.Produced):
		return fmt.Sprintf("Produced %v, fresh graph %v", got.Produced, want.Produced)
	case got.Halted != want.Halted:
		return fmt.Sprintf("Halted %v, fresh graph %v", got.Halted, want.Halted)
	case !reflect.DeepEqual(got.Degraded, want.Degraded):
		return fmt.Sprintf("Degraded %v, fresh graph %v", got.Degraded, want.Degraded)
	case !reflect.DeepEqual(got.Fidelity, want.Fidelity):
		return fmt.Sprintf("fidelity report\n%+v\nfresh graph\n%+v", got.Fidelity, want.Fidelity)
	}
	return ""
}

// reuseSequence interleaves what a run may change on the graph it leaves
// behind: the INPUT bindings, tracing, fidelity scoring, a budget that
// binds (half of what the unbudgeted run takes, where it takes any time:
// the triangle's services charge none) and a run cancelled before it
// starts.
func reuseSequence(t *testing.T, sc lifecycleScenario, po PrepareOptions) []reuseCase {
	t.Helper()
	var seq []reuseCase
	for i := 0; i < 24; i++ {
		c := reuseCase{inputs: i % len(sc.inputs), trace: i%2 == 1, fidelity: i%3 == 1, cancel: i%7 == 5}
		if i%4 == 2 {
			full, _, err := freshRun(t, sc, Config{}, po, reuseCase{inputs: c.inputs})
			if err != nil {
				t.Fatal(err)
			}
			c.budget = full.Elapsed / 2
		}
		seq = append(seq, c)
	}
	return seq
}

// TestGraphReuseMatchesFreshGraph runs one Prepared per scenario and
// driver policy through a reuse sequence, one run at a time, and checks
// every run — and, when traced, its whole trace — against the same run on
// a fresh graph. A run that succeeds (degraded ones included) returns its
// graph, so every later run reuses it; a failed one drops it. Call
// sharing is off: a Share layer's memo, which outlives runs by design,
// would show in the traces.
func TestGraphReuseMatchesFreshGraph(t *testing.T) {
	for _, sc := range lifecycleScenarios(t) {
		for _, materialize := range []bool{false, true} {
			name := sc.name + "/pull"
			if materialize {
				name = sc.name + "/drain"
			}
			t.Run(name, func(t *testing.T) {
				po := PrepareOptions{Weights: sc.weights, TargetK: 5, Parallelism: 4,
					Materialize: materialize, Degrade: !materialize}
				p, err := New(sc.services, nil).Prepare(sc.ann, po)
				if err != nil {
					t.Fatal(err)
				}
				var reused *graph
				degraded, failed, budgeted := 0, 0, false
				for i, c := range reuseSequence(t, sc, po) {
					budgeted = budgeted || c.budget > 0
					run, tr, err := reuseRun(p, sc, c)
					want, wantTr, wantErr := freshRun(t, sc, Config{}, po, c)
					if diff := sameRun(run, want, err, wantErr); diff != "" {
						t.Fatalf("run %d (%v): %s", i, c, diff)
					}
					if tr != nil && err == nil {
						got, fresh := chromeBytes(t, tr.Snapshot()), chromeBytes(t, wantTr.Snapshot())
						if !bytes.Equal(got, fresh) {
							t.Fatalf("run %d (%v): trace differs from a fresh graph's", i, c)
						}
					}
					if err != nil {
						failed++
						if len(p.free) != 0 {
							t.Fatalf("run %d failed (%v) but its graph went back to the free list", i, err)
						}
						reused = nil
						continue
					}
					if run.Degraded != nil {
						degraded++
					}
					if len(p.free) != 1 || reused != nil && p.free[0] != reused {
						t.Fatalf("run %d: free list holds %d graphs, want the one graph every run reuses", i, len(p.free))
					}
					reused = p.free[0]
				}
				if failed == 0 || !materialize && budgeted && degraded == 0 {
					t.Errorf("sequence ran %d failed and %d degraded runs; it must exercise both", failed, degraded)
				}
			})
		}
	}
}

// TestGraphReuseConcurrent runs each Prepared from several goroutines at
// once, so runs take, build and return graphs concurrently, and checks
// every run against its fresh-graph reference. On a clock that waits, pipe
// look-ahead and join-branch prefetch run on goroutines of their own and
// how far they read ahead depends on the schedule, so only the ranked
// combinations must match there. The free list never holds more graphs
// than ran at once. Run with -race.
func TestGraphReuseConcurrent(t *testing.T) {
	const workers, iterations = 4, 30
	for _, sc := range lifecycleScenarios(t) {
		for _, waits := range []bool{false, true} {
			name := sc.name + "/virtual"
			cfg := Config{Share: true}
			if waits {
				name, cfg.Clock = sc.name+"/waiting", &yieldClock{}
			}
			t.Run(name, func(t *testing.T) {
				po := PrepareOptions{Weights: sc.weights, TargetK: 5, Parallelism: 4, Degrade: true}
				p, err := NewWithConfig(sc.services, cfg).Prepare(sc.ann, po)
				if err != nil {
					t.Fatal(err)
				}
				// No budget: concurrent runs advance one clock.
				cases := make([]reuseCase, 0, 4*len(sc.inputs))
				for in := range sc.inputs {
					for v := 0; v < 4; v++ {
						cases = append(cases, reuseCase{inputs: in, trace: v&1 != 0, fidelity: v&2 != 0})
					}
				}
				refs := make([]*Run, len(cases))
				for i, c := range cases {
					if refs[i], _, err = freshRun(t, sc, Config{Share: true}, po, c); err != nil {
						t.Fatal(err)
					}
				}
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < iterations; i++ {
							ci := (w*7 + i) % len(cases)
							run, _, err := reuseRun(p, sc, cases[ci])
							diff := sameRun(run, refs[ci], err, nil)
							if waits && err == nil && reflect.DeepEqual(runKeys(run), runKeys(refs[ci])) {
								diff = ""
							}
							if diff != "" {
								t.Errorf("worker %d run %d (%v): %s", w, i, cases[ci], diff)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				if n := len(p.free); n < 1 || n > workers {
					t.Errorf("free list holds %d graphs after %d concurrent workers", n, workers)
				}
			})
		}
	}
}
