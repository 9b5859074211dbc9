package engine

import (
	"context"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/synth"
)

// The branches of a parallel join must overlap in time: with both search
// services sleeping their published latency per fetch, the (M‖T) plan's
// elapsed time approaches max(latencies), not their sum. We give both
// sides one fetch (~120 ms and ~80 ms): a sequential engine would need
// ≥200 ms before the pipe stage; the parallel one stays well under.
func TestParallelBranchesOverlapInTime(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(world.Services(), WallClock{})
	a, err := plan.Annotate(p, map[string]int{"M": 1, "T": 1, "R": 1})
	if err != nil {
		t.Fatal(err)
	}
	run, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, Parallelism: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Branch latencies: M 120 ms, T 80 ms (sum 200 ms). The pipe stage
	// adds R calls (100 ms each, parallelized). Allow generous slack for
	// the scheduler, but the M/T overlap must be visible: the total must
	// stay below the strictly sequential bound of 200 ms + R-time.
	rCalls := run.Calls["R"]
	sequentialFloor := 200*time.Millisecond + time.Duration(rCalls)*100*time.Millisecond
	if run.Elapsed >= sequentialFloor {
		t.Errorf("elapsed %v suggests sequential branch execution (floor %v, R calls %d)",
			run.Elapsed, sequentialFloor, rCalls)
	}
	if run.Elapsed < 100*time.Millisecond {
		t.Errorf("elapsed %v below the slowest branch latency; latency hook inactive?", run.Elapsed)
	}
}

// Pipe-join invocations run concurrently under the worker pool: 10 piped
// calls at 50 ms each with parallelism 8 must finish far sooner than
// 500 ms.
func TestPipeInvocationsRunConcurrently(t *testing.T) {
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
	e := New(world.Services(), WallClock{})
	a, err := plan.Annotate(p, map[string]int{"F": 1, "H": 1})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	run, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, Parallelism: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Weather alone is invoked 20× at 60 ms; strictly sequential piping
	// would exceed 1.2 s before flights and hotels. With 16 workers the
	// whole run should finish far below that.
	if elapsed >= 1200*time.Millisecond {
		t.Errorf("elapsed %v suggests sequential pipe invocations (calls: %v)", elapsed, run.Calls)
	}
}

// labelRecorder records the pprof labels on the context of every Invoke.
type labelRecorder struct {
	service.Service
	mu     sync.Mutex
	labels [][2]string // seco.query, seco.operator
}

func (l *labelRecorder) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	q, _ := pprof.Label(ctx, "seco.query")
	op, _ := pprof.Label(ctx, "seco.operator")
	l.mu.Lock()
	l.labels = append(l.labels, [2]string{q, op})
	l.mu.Unlock()
	return l.Service.Invoke(ctx, in)
}

// Under metrics, every piped invocation carries the run's seco.query
// label, and the look-ahead ones — issued on their own goroutines under a
// clock that waits, the only kind with look-ahead — also carry the piped
// node's seco.operator label.
func TestLookAheadInvokeCarriesLabels(t *testing.T) {
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
	var wID, rootID string
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		switch {
		case n.Kind == plan.KindService && n.Alias == "W":
			wID = id
		case n.Kind == plan.KindOutput:
			rootID = p.Predecessors(id)[0]
		}
	}
	svcs := world.Services()
	rec := &labelRecorder{Service: svcs["W"]}
	svcs["W"] = rec
	e := NewWithConfig(svcs, Config{Clock: &yieldClock{}, Metrics: obs.NewRegistry()})
	a, err := plan.Annotate(p, map[string]int{"F": 1, "H": 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, Parallelism: 4,
	}); err != nil {
		t.Fatal(err)
	}
	lookAhead := 0
	for _, l := range rec.labels {
		if l[0] != rootID {
			t.Errorf("Invoke saw seco.query %q, want %q", l[0], rootID)
		}
		if l[1] == wID {
			lookAhead++
		}
	}
	if lookAhead == 0 {
		t.Errorf("no Invoke of W carried seco.operator %q (labels %v)", wID, rec.labels)
	}
}
