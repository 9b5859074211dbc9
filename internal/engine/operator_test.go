package engine

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/synth"
	"seco/internal/types"
)

// compileFixture prepares the running-example plan and instantiates one
// run's operator graph without running a driver, so tests can exercise the operator lifecycle
// directly.
func compileFixture(t *testing.T) *graph {
	t.Helper()
	e, p, q, world := fixture(t)
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	prep, err := e.Prepare(a, PrepareOptions{Weights: q.Weights, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	ex := &executor{Prepared: prep, run: RunOptions{Inputs: world.Inputs}, scope: e.Invoker().NewRun()}
	g, err := prep.instantiate(ex)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestOperatorCloseBeforeExhaustion(t *testing.T) {
	g := compileFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := g.root.Open(ctx); err != nil {
		t.Fatal(err)
	}
	c, err := g.root.Next(ctx)
	if err != nil || c == nil {
		t.Fatalf("first pull: %v %v", c, err)
	}
	// Tear down mid-stream: every operator must come to rest, including
	// the pipe look-ahead and join prefetch goroutines still in flight.
	cancel()
	g.wg.Wait()
	g.shutdown()
	if _, err := g.root.Next(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Next after Close: %v, want ErrClosed", err)
	}
	if b := g.root.Bound(); !math.IsInf(b, -1) {
		t.Errorf("Bound after Close = %v, want -Inf", b)
	}
}

func TestOperatorDoubleClose(t *testing.T) {
	g := compileFixture(t)
	ctx := context.Background()
	if err := g.root.Open(ctx); err != nil {
		t.Fatal(err)
	}
	g.shutdown()
	g.shutdown() // Close is idempotent on every operator
	for _, op := range g.ops {
		op.Close()
	}
}

func TestOperatorCancelMidNext(t *testing.T) {
	g := compileFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	if err := g.root.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := g.root.Next(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()
	// The cancelled context must surface promptly — not hang on a pipe
	// slot or join prefetch — and teardown must still come to rest.
	for {
		c, err := g.root.Next(ctx)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("post-cancel error: %v", err)
			}
			break
		}
		if c == nil {
			break // already drained everything before the cancel landed
		}
	}
	g.wg.Wait()
	g.shutdown()
}

func TestOperatorOpenAfterCloseRefused(t *testing.T) {
	g := compileFixture(t)
	g.shutdown()
	if err := g.root.Open(context.Background()); !errors.Is(err, ErrClosed) {
		t.Errorf("Open after Close: %v, want ErrClosed", err)
	}
}

// TestZeroResultUpstreams drives every operator kind above an empty
// service result: the movie scan yields nothing, so the selection above
// it, the pipes below it and the drivers all see a zero-result upstream.
func TestZeroResultUpstreams(t *testing.T) {
	e, p, q, world := fixture(t)
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]types.Value{}
	for k, v := range world.Inputs {
		inputs[k] = v
	}
	inputs["INPUT7"] = types.String("Klingon") // no movie matches
	for _, materialize := range []bool{false, true} {
		run, err := e.Execute(context.Background(), a, Options{
			Inputs: inputs, Weights: q.Weights, TargetK: 5, Materialize: materialize,
		})
		if err != nil {
			t.Fatalf("materialize=%v: %v", materialize, err)
		}
		if len(run.Combinations) != 0 {
			t.Errorf("materialize=%v: %d combinations from an empty world", materialize, len(run.Combinations))
		}
		// The empty scan must short-circuit: downstream services stay
		// uncalled.
		if run.Calls["R"] != 0 {
			t.Errorf("materialize=%v: restaurant called %d times below an empty scan", materialize, run.Calls["R"])
		}
	}
}

// TestZeroResultJoinBranch drives the parallel-join operator with both
// branches empty (no conference survives an impossible selection input).
func TestZeroResultJoinBranch(t *testing.T) {
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
	e := New(world.Services(), nil)
	a, err := plan.Annotate(p, map[string]int{"F": 2, "H": 2})
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]types.Value{}
	for k, v := range world.Inputs {
		inputs[k] = v
	}
	inputs["INPUT1"] = types.String("Cryonics") // no such conference topic
	for _, materialize := range []bool{false, true} {
		run, err := e.Execute(context.Background(), a, Options{
			Inputs: inputs, Weights: q.Weights, TargetK: 10, Materialize: materialize,
		})
		if err != nil {
			t.Fatalf("materialize=%v: %v", materialize, err)
		}
		if len(run.Combinations) != 0 {
			t.Errorf("materialize=%v: %d combinations for an empty join", materialize, len(run.Combinations))
		}
	}
}

func TestInputOpLifecycle(t *testing.T) {
	op := &countedOp{inner: &inputOp{}, n: &atomic.Int64{}}
	ctx := context.Background()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if op.Bound() != 0 {
		t.Errorf("input bound before exhaustion = %v", op.Bound())
	}
	c, err := op.Next(ctx)
	if err != nil || c == nil {
		t.Fatalf("input op first pull: %v %v", c, err)
	}
	for _, comp := range c.comps {
		if comp != nil {
			t.Fatal("input op seeded a non-empty combination")
		}
	}
	c, err = op.Next(ctx)
	if err != nil || c != nil {
		t.Fatalf("input op second pull: %v %v", c, err)
	}
	if !math.IsInf(op.Bound(), -1) {
		t.Errorf("input bound after exhaustion = %v", op.Bound())
	}
	op.Close()
	if _, err := op.Next(ctx); !errors.Is(err, ErrClosed) {
		t.Errorf("input op after Close: %v", err)
	}
}
