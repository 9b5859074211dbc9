package core

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/service"
	"seco/internal/synth"
)

// failAfterSvc wraps one triangle branch service and fails every call
// permanently once limit calls (Invoke and Fetch together) went through.
type failAfterSvc struct {
	inner service.Service
	limit int64
	calls atomic.Int64
}

func (d *failAfterSvc) Interface() *mart.Interface { return d.inner.Interface() }
func (d *failAfterSvc) Stats() service.Stats       { return d.inner.Stats() }
func (d *failAfterSvc) Unwrap() service.Service    { return d.inner }

func (d *failAfterSvc) fail() error {
	if d.calls.Add(1) > d.limit {
		return fmt.Errorf("branch gone: %w", service.ErrPermanent)
	}
	return nil
}

func (d *failAfterSvc) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	if err := d.fail(); err != nil {
		return nil, err
	}
	inv, err := d.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &failAfterInvocation{svc: d, inner: inv}, nil
}

type failAfterInvocation struct {
	svc   *failAfterSvc
	inner service.Invocation
}

func (di *failAfterInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	if err := di.svc.fail(); err != nil {
		return service.Chunk{}, err
	}
	return di.inner.Fetch(ctx)
}

// triangleWith builds the triangle system with an optional per-alias
// service wrapper applied before binding.
func triangleWith(t *testing.T, seed int64, wrap func(alias string, svc service.Service) service.Service) (*System, *synth.TriangleWorld) {
	t.Helper()
	reg, err := mart.TriangleScenario()
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTriangleWorld(reg, synth.TriangleConfig{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystemWith(reg)
	for alias, svc := range world.Services() {
		if wrap != nil {
			svc = wrap(alias, svc)
		}
		if err := sys.Bind(svc); err != nil {
			t.Fatal(err)
		}
	}
	return sys, world
}

// TestTriangleChaosCertifiedPrefix is the chaos-sweep equivalence family
// of the multi-way join: killing any one branch mid-run under Degrade
// must yield a partial result whose certified prefix is byte-identical
// to the fault-free ranking — the n-ary corner bound must stay sound
// when one of its branches dies.
func TestTriangleChaosCertifiedPrefix(t *testing.T) {
	const seed = 7
	clean, world := triangleWith(t, seed, nil)
	res := planTriangle(t, clean, 5, false)
	if !hasMultiJoin(res.Plan) {
		t.Fatal("no multijoin in the default triangle plan")
	}
	cleanRun, err := clean.Run(context.Background(), fullBudget(t, res),
		RunOptions{Inputs: world.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanRun.Combinations) < 5 {
		t.Fatalf("clean run found %d combinations", len(cleanRun.Combinations))
	}

	for _, victim := range []string{"A", "V", "P"} {
		for _, limit := range []int64{1, 2, 4, 8, 16} {
			t.Run(fmt.Sprintf("%s/limit=%d", victim, limit), func(t *testing.T) {
				sys, w := triangleWith(t, seed, func(alias string, svc service.Service) service.Service {
					if alias == victim {
						return &failAfterSvc{inner: svc, limit: limit}
					}
					return svc
				})
				run, err := sys.Run(context.Background(), fullBudget(t, res),
					RunOptions{Inputs: w.Inputs, Degrade: true})
				if err != nil {
					t.Fatalf("Degrade still surfaced the branch failure: %v", err)
				}
				d := run.Degraded
				if d == nil {
					// The run completed before the fault window: only
					// possible when the driver certified its top-5 within
					// the surviving call budget.
					if len(run.Combinations) < 5 {
						t.Fatalf("run neither degraded nor completed (%d combinations)",
							len(run.Combinations))
					}
					return
				}
				if d.Reason != engine.DegradeServiceFailure {
					t.Errorf("reason = %s, want %s", d.Reason, engine.DegradeServiceFailure)
				}
				found := false
				for _, f := range d.Failed {
					if f == victim {
						found = true
					}
				}
				if !found {
					t.Errorf("failed services = %v, want to include %s", d.Failed, victim)
				}
				if d.CertifiedK > len(run.Combinations) {
					t.Fatalf("certified %d of %d results", d.CertifiedK, len(run.Combinations))
				}
				for i := 0; i < d.CertifiedK; i++ {
					got, want := fingerprint(run.Combinations[i]), fingerprint(cleanRun.Combinations[i])
					if got != want {
						t.Errorf("certified combination %d differs from fault-free run:\n got %s\n want %s",
							i, got, want)
					}
				}
			})
		}
	}
}

// TestTriangleChaosTransientsTransparent wraps every triangle service in
// Policy(Flaky(svc)): injected transient faults must be invisible in the
// result — the n-ary run returns the identical certified top-5.
func TestTriangleChaosTransientsTransparent(t *testing.T) {
	const seed = 23
	clean, world := triangleWith(t, seed, nil)
	res := planTriangle(t, clean, 5, false)
	if !hasMultiJoin(res.Plan) {
		t.Fatal("no multijoin in the default triangle plan")
	}
	cleanRun, err := clean.Run(context.Background(), fullBudget(t, res),
		RunOptions{Inputs: world.Inputs})
	if err != nil {
		t.Fatal(err)
	}

	flakies := map[string]*service.Flaky{}
	sys, w := triangleWith(t, seed, func(alias string, svc service.Service) service.Service {
		f := service.NewFlaky(svc, 3)
		flakies[alias] = f
		// The test compares results, not elapsed time, so the backoff
		// sleeps on a clock of its own.
		return service.NewPolicy(f, engine.NewVirtualClock(), 1)
	})
	run, err := sys.Run(context.Background(), fullBudget(t, res),
		RunOptions{Inputs: w.Inputs})
	if err != nil {
		t.Fatalf("run failed despite retries: %v", err)
	}
	injected := 0
	for _, f := range flakies {
		injected += f.Injected()
	}
	if injected == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
	got := strings.Join(fingerprints(run.Combinations), "\n")
	want := strings.Join(fingerprints(cleanRun.Combinations), "\n")
	if got != want {
		t.Errorf("faulty run differs from clean run:\n got:\n%s\n want:\n%s", got, want)
	}
}
