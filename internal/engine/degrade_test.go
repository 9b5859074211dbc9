package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
)

// movienightOpts assembles the running-example world for degradation
// tests with the canonical deterministic options.
func movienightOpts(t *testing.T) (map[string]service.Service, *plan.Annotated, Options) {
	t.Helper()
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
	return world.Services(), a, Options{
		Inputs: world.Inputs, Weights: q.Weights, TargetK: 10, Parallelism: 1,
	}
}

// conftravelOpts plans the conference-travel query at K=5 the way the
// serving layer does (optimizer, fixed interfaces, published stats). Its
// root reader is the H pipe, which tests ~800 candidates to keep 5, so
// nearly all of its pull is spent skipping below the driver's floor.
func conftravelOpts(t *testing.T) (map[string]service.Service, *plan.Annotated, Options) {
	t.Helper()
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse(query.TravelExampleText)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Analyze(reg); err != nil {
		t.Fatal(err)
	}
	services := world.Services()
	stats := map[string]service.Stats{}
	for _, svc := range services {
		stats[svc.Interface().Name] = svc.Stats()
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: 5, StatsByInterface: stats, FixedInterfaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return services, res.Annotated, Options{
		Inputs: world.Inputs, Weights: q.Weights, TargetK: 5, Parallelism: 1,
	}
}

// dyingSvc wraps a service and fails every call permanently once limit
// calls (Invoke and Fetch together) have gone through.
type dyingSvc struct {
	inner service.Service
	limit int64
	calls atomic.Int64
}

func (d *dyingSvc) Interface() *mart.Interface { return d.inner.Interface() }
func (d *dyingSvc) Stats() service.Stats       { return d.inner.Stats() }
func (d *dyingSvc) Unwrap() service.Service    { return d.inner }

func (d *dyingSvc) fail() error {
	if d.calls.Add(1) > d.limit {
		return fmt.Errorf("backend gone: %w", service.ErrPermanent)
	}
	return nil
}

func (d *dyingSvc) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	inv, err := d.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &dyingInvocation{svc: d, inner: inv}, nil
}

type dyingInvocation struct {
	svc   *dyingSvc
	inner service.Invocation
}

func (di *dyingInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	if err := di.svc.fail(); err != nil {
		return service.Chunk{}, err
	}
	return di.inner.Fetch(ctx)
}

// cancellingSvc cancels the run's context on call limit (Invoke and Fetch
// together), simulating a caller abandoning the query mid-flight. With
// onFetch it waits for the first Fetch from call limit on and cancels once
// that Fetch has returned its chunk, so the reader is left the chunk to
// read after the cancel. at records the cancelling call.
type cancellingSvc struct {
	inner   service.Service
	limit   int64
	onFetch bool
	cancel  context.CancelFunc
	calls   atomic.Int64
	at      atomic.Int64
}

func (c *cancellingSvc) Interface() *mart.Interface { return c.inner.Interface() }
func (c *cancellingSvc) Stats() service.Stats       { return c.inner.Stats() }
func (c *cancellingSvc) Unwrap() service.Service    { return c.inner }

func (c *cancellingSvc) tick(fetch bool) {
	n := c.calls.Add(1)
	if n >= c.limit && (fetch || !c.onFetch) && c.at.CompareAndSwap(0, n) {
		c.cancel()
	}
}

func (c *cancellingSvc) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	c.tick(false)
	inv, err := c.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &cancellingInvocation{svc: c, inner: inv}, nil
}

type cancellingInvocation struct {
	svc   *cancellingSvc
	inner service.Invocation
}

func (ci *cancellingInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	if !ci.svc.onFetch {
		ci.svc.tick(true)
		return ci.inner.Fetch(ctx)
	}
	chunk, err := ci.inner.Fetch(ctx)
	ci.svc.tick(true)
	return chunk, err
}

// TestDegradePermanentFailure kills the restaurant service mid-run. With
// Degrade off the failure surfaces as an error; with Degrade on the
// streaming executor returns the combinations produced so far, names the
// failed service, and certifies the provably-correct prefix against the
// fault-free ranking.
func TestDegradePermanentFailure(t *testing.T) {
	services, a, opts := movienightOpts(t)
	clean, err := New(services, nil).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}

	build := func() map[string]service.Service {
		services, _, _ := movienightOpts(t)
		services["R"] = &dyingSvc{inner: services["R"], limit: 4}
		return services
	}

	if _, err := New(build(), nil).Execute(context.Background(), a, opts); !errors.Is(err, service.ErrPermanent) {
		t.Fatalf("without Degrade, err = %v, want ErrPermanent", err)
	}

	dopts := opts
	dopts.Degrade = true
	run, err := New(build(), nil).Execute(context.Background(), a, dopts)
	if err != nil {
		t.Fatalf("Degrade still surfaced the failure: %v", err)
	}
	d := run.Degraded
	if d == nil {
		t.Fatal("run did not degrade")
	}
	if d.Reason != DegradeServiceFailure {
		t.Errorf("reason = %s, want %s", d.Reason, DegradeServiceFailure)
	}
	if len(d.Failed) != 1 || d.Failed[0] != "R" {
		t.Errorf("failed services = %v, want [R]", d.Failed)
	}
	if d.Cause == "" {
		t.Error("degradation has no cause")
	}
	if len(d.FetchDepth) == 0 {
		t.Error("degradation reports no fetch depths")
	}
	if len(run.Combinations) >= len(clean.Combinations)+1 {
		t.Errorf("partial run has %d combinations, clean %d", len(run.Combinations), len(clean.Combinations))
	}
	if d.CertifiedK > len(run.Combinations) {
		t.Fatalf("certified %d of %d results", d.CertifiedK, len(run.Combinations))
	}
	for i := 0; i < d.CertifiedK; i++ {
		if run.Combinations[i].String() != clean.Combinations[i].String() {
			t.Errorf("certified combination %d differs from fault-free run:\n got %s\n want %s",
				i, run.Combinations[i], clean.Combinations[i])
		}
	}
}

// TestDegradeBudgetExpiry gives the run half the fault-free virtual
// elapsed time. The streaming executor must stop at the budget and
// return the partial result; the materializing executor has nothing
// partial to return and errors with ErrBudget.
func TestDegradeBudgetExpiry(t *testing.T) {
	services, a, opts := movienightOpts(t)
	clean, err := New(services, nil).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Elapsed <= 0 {
		t.Fatal("clean run has no simulated elapsed time; budget test is vacuous")
	}

	dopts := opts
	dopts.Budget = clean.Elapsed / 2
	dopts.Degrade = true
	run, err := New(services, nil).Execute(context.Background(), a, dopts)
	if err != nil {
		t.Fatalf("budget expiry surfaced as error despite Degrade: %v", err)
	}
	d := run.Degraded
	if d == nil {
		t.Fatal("run did not degrade on budget expiry")
	}
	if d.Reason != DegradeBudget {
		t.Errorf("reason = %s, want %s", d.Reason, DegradeBudget)
	}
	if len(run.Combinations) >= len(clean.Combinations) {
		t.Errorf("half the budget still produced the full result (%d combinations)", len(run.Combinations))
	}
	for i := 0; i < d.CertifiedK; i++ {
		if run.Combinations[i].String() != clean.Combinations[i].String() {
			t.Errorf("certified combination %d differs from fault-free run", i)
		}
	}

	mopts := dopts
	mopts.Materialize = true
	if _, err := New(services, nil).Execute(context.Background(), a, mopts); !errors.Is(err, ErrBudget) {
		t.Errorf("materializing executor under budget: err = %v, want ErrBudget", err)
	}

	// Without Degrade the streaming executor surfaces the budget too.
	sopts := opts
	sopts.Budget = clean.Elapsed / 2
	if _, err := New(services, nil).Execute(context.Background(), a, sopts); !errors.Is(err, ErrBudget) {
		t.Errorf("streaming executor without Degrade: err = %v, want ErrBudget", err)
	}
}

// TestDegradeNeverMasksCancellation: a context cancelled by the caller
// must surface as an error even in Degrade mode — degradation is for
// infrastructure failures, not for the user changing their mind.
func TestDegradeNeverMasksCancellation(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		services, a, opts := movienightOpts(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		services["T"] = &cancellingSvc{inner: services["T"], limit: 3, cancel: cancel}
		opts.Degrade = true
		opts.Materialize = materialize
		run, err := New(services, nil).Execute(ctx, a, opts)
		if err == nil {
			if run.Degraded != nil {
				t.Errorf("materialize=%v: cancellation was masked as degradation: %v", materialize, run.Degraded)
			} else {
				t.Errorf("materialize=%v: cancelled run completed fully", materialize)
			}
			continue
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("materialize=%v: err = %v, want context.Canceled", materialize, err)
		}
	}
}

// TestCancellationStopsCalls verifies both executors stop issuing
// request-responses promptly once the context is cancelled: the wire
// call count must stay well below the full run's. On conftravel the
// cancel lands while the pull's root reader skips below-floor candidates,
// whose per-candidate poll must see it.
func TestCancellationStopsCalls(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		services, a, opts := movienightOpts(t)
		opts.Materialize = materialize
		full, err := New(services, nil).Execute(context.Background(), a, opts)
		if err != nil {
			t.Fatal(err)
		}

		services, _, _ = movienightOpts(t)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := &cancellingSvc{inner: services["M"], limit: 2, cancel: cancel}
		services["M"] = c
		if _, err := New(services, nil).Execute(ctx, a, opts); err == nil {
			t.Errorf("materialize=%v: run survived cancellation", materialize)
			continue
		}
		if got, want := c.calls.Load(), full.TotalCalls(); got >= want {
			t.Errorf("materialize=%v: %d calls on the cancelling service, full run only needs %d total",
				materialize, got, want)
		}
	}

	services, a, opts := conftravelOpts(t)
	full, err := New(services, nil).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	if skipped := full.Produced["H"] - len(full.Combinations); skipped < 100 {
		t.Fatalf("conftravel root reader skipped %d candidates; the case no longer cancels mid-skip", skipped)
	}
	// H's Invokes and Fetches together; the reader skips from the second
	// on. Cancel on each Fetch in turn: the reader skips the chunk it
	// returns, and unless a poll sees the cancel, its next call reaches H.
	ticks := int64(full.Calls["H"] + full.Invocations["H"])
	for limit := int64(2); limit < ticks; limit++ {
		services, _, _ := conftravelOpts(t)
		ctx, cancel := context.WithCancel(context.Background())
		c := &cancellingSvc{inner: services["H"], limit: limit, onFetch: true, cancel: cancel}
		services["H"] = c
		_, err := New(services, nil).Execute(ctx, a, opts)
		cancel()
		if c.at.Load() == ticks {
			break // cancelled on the run's last call: nothing left to stop
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("conftravel: run cancelled at H call %d returned %v, want context.Canceled", c.at.Load(), err)
		}
		if got, at := c.calls.Load(), c.at.Load(); got != at || got >= ticks {
			t.Fatalf("conftravel: %d calls on H after the cancel at call %d; the full run needs %d",
				got, at, ticks)
		}
	}
}

// TestStreamingParallelJoinsSurviveTransients extends the transient-
// equivalence guarantee to the streaming executor with parallel pipe
// joins: Policy(Flaky(svc)) at Parallelism 4 must reproduce the clean
// top-k even though the fault schedule itself is racy.
func TestStreamingParallelJoinsSurviveTransients(t *testing.T) {
	for _, materialize := range []bool{false, true} {
		services, a, opts := movienightOpts(t)
		opts.Parallelism = 4
		opts.Materialize = materialize
		clean, err := New(services, nil).Execute(context.Background(), a, opts)
		if err != nil {
			t.Fatal(err)
		}

		services, _, _ = movienightOpts(t)
		clk := NewVirtualClock()
		flakies := map[string]*service.Flaky{}
		wrapped := map[string]service.Service{}
		for alias, svc := range services {
			f := service.NewFlaky(svc, 3)
			flakies[alias] = f
			wrapped[alias] = service.NewPolicy(f, clk, 1)
		}
		faulty, err := New(wrapped, clk).Execute(context.Background(), a, opts)
		if err != nil {
			t.Fatalf("materialize=%v: parallel run failed despite retries: %v", materialize, err)
		}
		injected := 0
		for _, f := range flakies {
			injected += f.Injected()
		}
		if injected == 0 {
			t.Fatalf("materialize=%v: no failures injected; test is vacuous", materialize)
		}
		if len(faulty.Combinations) != len(clean.Combinations) {
			t.Fatalf("materialize=%v: faulty run returned %d combinations, clean %d",
				materialize, len(faulty.Combinations), len(clean.Combinations))
		}
		for i := range clean.Combinations {
			if clean.Combinations[i].String() != faulty.Combinations[i].String() {
				t.Errorf("materialize=%v: combination %d differs", materialize, i)
			}
		}
		if len(faulty.Resilience) == 0 {
			t.Errorf("materialize=%v: run report carries no resilience stats", materialize)
		}
	}
}

// TestRunReportsResilienceStats checks the per-alias stats aggregation
// across a Policy(Flaky) chain.
func TestRunReportsResilienceStats(t *testing.T) {
	services, a, opts := movienightOpts(t)
	clk := NewVirtualClock()
	wrapped := map[string]service.Service{}
	for alias, svc := range services {
		wrapped[alias] = service.NewPolicy(service.NewFlaky(svc, 4), clk, 1)
	}
	run, err := New(wrapped, clk).Execute(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	var total service.ResilienceStats
	for _, rs := range run.Resilience {
		total.Add(rs)
	}
	if total.Injected == 0 || total.Retries == 0 {
		t.Errorf("resilience totals vacuous: %+v", total)
	}
	if total.Injected != total.Retries+total.GiveUps {
		t.Errorf("injected %d but retries %d + give-ups %d don't account for them",
			total.Injected, total.Retries, total.GiveUps)
	}
}
