package service

import (
	"context"
	"errors"
	"time"
)

// This file is the shared substrate of the call policy, the Hedge and the
// fault injectors (Flaky, internal/chaos): the failure taxonomy, the
// TimeSource each layer that charges time takes at construction, the
// Unwrap convention CollectResilience walks, and the execution-budget
// context hook the engine threads through every Invoke/Fetch.

// ErrPermanent marks a non-retryable failure of a remote service: the
// service is gone for the remainder of the run (crashed, revoked,
// decommissioned). Policy passes it through without a retry; the
// engine's Degrade mode turns it into a partial result instead of a
// failed run.
var ErrPermanent = errors.New("service: permanent failure")

// ErrOpen is returned by a Policy whose circuit is open. It is
// deliberately neither transient nor permanent: nothing retries or
// hedges an open circuit, and the engine treats it as a service failure
// for degradation purposes.
var ErrOpen = errors.New("service: circuit open")

// TimeSource provides the two clock primitives of the layers that charge
// time: Now anchors cooldown windows and Sleep charges backoff delays and
// injected latency. Each such layer takes one at construction. The
// engine's Clock (internal/engine) satisfies it, so handing a layer the
// engine's VirtualClock charges its timing into simulated time
// deterministically.
type TimeSource interface {
	Now() time.Time
	Sleep(d time.Duration)
}

// Wrapper is implemented by middleware services that decorate another
// Service. Unwrap returns the decorated service, exposing the chain for
// CollectResilience.
type Wrapper interface {
	Unwrap() Service
}

// ResilienceStats aggregates the counters of a service's resilience
// middleware chain for the run report.
type ResilienceStats struct {
	// Retries counts backoff-and-retry attempts performed by Policy.
	Retries int64
	// GiveUps counts operations Policy abandoned after exhausting its
	// retries.
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
// carries a spent execution budget, nil otherwise. Policy consults it
// before each backoff so a spent budget is never slept against; the
// run's Counters hold the same probe in a field (RunScope.Bind), so the
// per-call check at the choke point needs no context lookup.
func CheckBudget(ctx context.Context) error {
	if check, ok := ctx.Value(budgetKey{}).(func() error); ok {
		return check()
	}
	return nil
}
