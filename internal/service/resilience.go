package service

import (
	"context"
	"errors"
	"time"
)

// This file is the shared substrate of the resilience middleware (Retry,
// Breaker, Flaky and the chaos injectors): the failure taxonomy, the
// injected time source that keeps all backoff and cooldown timing on the
// engine's Clock, the Unwrap convention for walking middleware chains,
// and the execution-budget context hook the engine threads through every
// Invoke/Fetch.

// ErrPermanent marks a non-retryable failure of a remote service: the
// service is gone for the remainder of the run (crashed, revoked,
// decommissioned). Retry passes it through untouched; the engine's
// Degrade mode turns it into a partial result instead of a failed run.
var ErrPermanent = errors.New("service: permanent failure")

// ErrOpen is returned by a tripped Breaker while its cooldown has not
// elapsed. It is deliberately neither transient nor permanent: Retry does
// not hammer an open circuit, and the engine treats it as a service
// failure for degradation purposes.
var ErrOpen = errors.New("service: circuit open")

// TimeSource provides the two clock primitives the resilience middleware
// needs: Now anchors cooldown windows and Sleep charges backoff delays.
// The engine's Clock (internal/engine) satisfies it, so virtual-clock
// runs charge retry backoff and breaker cooldowns into simulated time
// deterministically. The zero state (no time source installed) is
// timeless: Retry skips its backoff sleeps and Breaker stays open until
// reset, so no middleware ever falls back to the wall clock on its own.
type TimeSource interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Wrapper is implemented by middleware services that decorate another
// Service. Unwrap returns the decorated service, exposing the chain for
// InstallTimeSource and CollectResilience.
type Wrapper interface {
	Unwrap() Service
}

// TimeSourceSetter is implemented by middleware whose behavior depends on
// time (Retry backoff, Breaker cooldown, chaos latency spikes).
type TimeSourceSetter interface {
	SetTimeSource(ts TimeSource)
}

// InstallTimeSource walks the middleware chain of svc (via Wrapper) and
// installs ts into every layer that accepts one. The engine calls it for
// each bound service at construction, so all resilience timing flows
// through the engine Clock without the middleware importing the engine.
func InstallTimeSource(svc Service, ts TimeSource) {
	for s := svc; s != nil; {
		if setter, ok := s.(TimeSourceSetter); ok {
			setter.SetTimeSource(ts)
		}
		w, ok := s.(Wrapper)
		if !ok {
			break
		}
		s = w.Unwrap()
	}
}

// ResilienceStats aggregates the counters of a service's resilience
// middleware chain for the run report.
type ResilienceStats struct {
	// Retries counts backoff-and-retry attempts performed by Retry.
	Retries int64
	// GiveUps counts operations Retry abandoned after exhausting the
	// retry budget.
	GiveUps int64
	// Injected counts transient faults injected by Flaky or a chaos
	// injector.
	Injected int64
	// Permanent counts permanent faults injected by a chaos injector.
	Permanent int64
	// Tripped counts closed→open transitions of the circuit breaker.
	Tripped int64
	// Rejected counts calls the breaker refused while open.
	Rejected int64
	// Spikes counts injected latency spikes.
	Spikes int64
	// Hedges counts second attempts issued by the Hedge layer after a
	// hedgeable primary failure.
	Hedges int64
	// HedgeWins counts hedged attempts that recovered the call.
	HedgeWins int64
}

// Zero reports whether no resilience event was recorded.
func (s ResilienceStats) Zero() bool { return s == ResilienceStats{} }

// Add accumulates o into s.
func (s *ResilienceStats) Add(o ResilienceStats) {
	s.Retries += o.Retries
	s.GiveUps += o.GiveUps
	s.Injected += o.Injected
	s.Permanent += o.Permanent
	s.Tripped += o.Tripped
	s.Rejected += o.Rejected
	s.Spikes += o.Spikes
	s.Hedges += o.Hedges
	s.HedgeWins += o.HedgeWins
}

// ResilienceReporter is implemented by middleware that contributes to the
// run report's resilience counters.
type ResilienceReporter interface {
	Resilience() ResilienceStats
}

// CollectResilience walks the middleware chain of svc and sums the
// resilience counters of every reporting layer.
func CollectResilience(svc Service) ResilienceStats {
	var sum ResilienceStats
	for s := svc; s != nil; {
		if rep, ok := s.(ResilienceReporter); ok {
			sum.Add(rep.Resilience())
		}
		w, ok := s.(Wrapper)
		if !ok {
			break
		}
		s = w.Unwrap()
	}
	return sum
}

// budgetKey carries the execution-budget check in a context.
type budgetKey struct{}

// WithBudget attaches a budget check to the context. check returns nil
// while the budget holds and the budget-exhaustion error once it is
// spent; the engine installs a closure over its Clock so the check works
// identically under wall and virtual time.
func WithBudget(ctx context.Context, check func() error) context.Context {
	return context.WithValue(ctx, budgetKey{}, check)
}

// CheckBudget returns the budget-exhaustion error when the context
// carries a spent execution budget, nil otherwise. Retry consults it
// before each backoff so a spent budget is never slept against; the
// run's Counters hold the same probe in a field (RunScope.Bind), so the
// per-call check at the choke point needs no context lookup.
func CheckBudget(ctx context.Context) error {
	if check, ok := ctx.Value(budgetKey{}).(func() error); ok {
		return check()
	}
	return nil
}
