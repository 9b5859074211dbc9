package engine

import (
	"context"
	"testing"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
)

// Failure injection: wrapping every service in Policy(Flaky(...)) must
// produce exactly the same combinations as the clean run, despite
// injected transient failures on the wire.
func TestExecuteSurvivesTransientFailures(t *testing.T) {
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
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Inputs: world.Inputs, Weights: q.Weights, TargetK: 10,
		Parallelism: 1} // deterministic call interleaving for the flaky schedule
	clean, err := New(world.Services(), nil).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}

	clk := NewVirtualClock()
	flakies := map[string]*service.Flaky{}
	wrapped := map[string]service.Service{}
	for alias, svc := range world.Services() {
		f := service.NewFlaky(svc, 4) // every 4th call fails transiently
		flakies[alias] = f
		wrapped[alias] = service.NewPolicy(f, clk, 1)
	}
	faulty, err := New(wrapped, clk).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatalf("execution failed despite retries: %v", err)
	}

	injected := 0
	for _, f := range flakies {
		injected += f.Injected()
	}
	if injected == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
	if len(faulty.Combinations) != len(clean.Combinations) {
		t.Fatalf("faulty run returned %d combinations, clean %d (after %d injected failures)",
			len(faulty.Combinations), len(clean.Combinations), injected)
	}
	for i := range clean.Combinations {
		if clean.Combinations[i].String() != faulty.Combinations[i].String() {
			t.Errorf("combination %d differs:\n clean  %s\n faulty %s",
				i, clean.Combinations[i], faulty.Combinations[i])
		}
	}
}

// Ablation: the engine's call-sharing layer cuts the restaurant service's
// wire calls, because the pipe join repeatedly invokes it with recurring
// theatre addresses (several movies show at the same theatre). Results
// must be identical.
func TestCacheReducesPipeJoinWireCalls(t *testing.T) {
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
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Inputs: world.Inputs, Weights: q.Weights, Parallelism: 1}

	baseWire := service.NewCounter(world.Restaurants, nil)
	baseline := map[string]service.Service{
		"M": world.Movies, "T": world.Theatres, "R": baseWire,
	}
	runBase, err := New(baseline, nil).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	baselineCalls := baseWire.Fetches()

	cachedWire := service.NewCounter(world.Restaurants, nil)
	cached := map[string]service.Service{
		"M": world.Movies, "T": world.Theatres, "R": cachedWire,
	}
	runCached, err := NewWithConfig(cached, Config{Share: true}).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	cachedCalls := cachedWire.Fetches()

	if len(runBase.Combinations) != len(runCached.Combinations) {
		t.Fatalf("cache changed results: %d vs %d combinations",
			len(runBase.Combinations), len(runCached.Combinations))
	}
	for i := range runBase.Combinations {
		if runBase.Combinations[i].String() != runCached.Combinations[i].String() {
			t.Errorf("combination %d differs under cache", i)
		}
	}
	// Two of the seven piped invocations repeat an address already fetched.
	if baselineCalls != 7 || cachedCalls != 5 {
		t.Errorf("wire calls: baseline %d, shared %d — want 7 and 5", baselineCalls, cachedCalls)
	}
	t.Logf("wire calls: baseline %d, cached %d", baselineCalls, cachedCalls)
}

// Without retries, injected failures surface as execution errors.
func TestExecuteFailsWithoutRetries(t *testing.T) {
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
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := map[string]service.Service{}
	for alias, svc := range world.Services() {
		wrapped[alias] = service.NewFlaky(svc, 2)
	}
	_, err = New(wrapped, nil).Execute(context.Background(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, Parallelism: 1,
	})
	if err == nil {
		t.Error("execution over flaky services without retries succeeded")
	}
}

// TestPipeWithoutUpstreamValueOneError pins the error a pipe raises when
// its upstream combination lacks the value it binds from: one text, naming
// the piped service, whether the pipe feeds the output side (movienight's
// R) or a multi-way join branch (the triangle's A), under both driver
// policies.
func TestPipeWithoutUpstreamValueOneError(t *testing.T) {
	_, mp, mq, movie := fixture(t)
	tri, triangle := triangleFixture(t)
	for _, tc := range []struct {
		name string
		p    *plan.Plan
		opts Options
		svcs map[string]service.Service
		pipe string
		want string
	}{
		{"pipe under the output", mp, Options{Inputs: movie.Inputs, Weights: mq.Weights, TargetK: 5},
			movie.Services(), "R", `service "R": engine: pipe into R: upstream T.Nowhere has no value`},
		{"pipe under a multijoin", tri.Plan, Options{Inputs: triangle.Inputs, Weights: tri.Query.Weights, TargetK: 5},
			triangle.Services(), "A", `service "A": engine: pipe into A: upstream S.Nowhere has no value`},
	} {
		// Rebind the pipe to a path its upstream never carries.
		p := tc.p.Clone()
		n, ok := p.Node(tc.pipe)
		if !ok {
			t.Fatalf("%s: no node %s", tc.name, tc.pipe)
		}
		for i := range n.Bindings {
			if n.Bindings[i].Source.Kind == query.BindJoin {
				n.Bindings[i].Source.From.Path = "Nowhere"
			}
		}
		a, err := plan.Annotate(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, materialize := range []bool{false, true} {
			opts := tc.opts
			opts.Materialize = materialize
			_, err := New(tc.svcs, nil).Execute(context.Background(), a, opts)
			if err == nil || err.Error() != tc.want {
				t.Errorf("%s materialize=%v: error %v, want %s", tc.name, materialize, err, tc.want)
			}
		}
	}
}
