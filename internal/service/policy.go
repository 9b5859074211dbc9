package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/mart"
	"seco/internal/obs"
)

// The call policy's settings. They are constants: the chaos sweep, the
// one place that mounts the policy, certifies exactly these.
const (
	// policyRetries is the number of re-attempts after a transient
	// failure before the operation gives up.
	policyRetries = 8
	// policyBackoff is the first retry delay; it doubles per attempt, so
	// the eighth waits at most 128 ms.
	policyBackoff = time.Millisecond
	// policyJitter is the largest share drawn off each delay,
	// decorrelating the retry storms of concurrent invocations.
	policyJitter = 0.5
	// policyThreshold is the number of consecutive failed operations
	// that trips the circuit.
	policyThreshold = 3
	// policyCooldown is how long a tripped circuit stays open before one
	// half-open probe is let through.
	policyCooldown = 250 * time.Millisecond
)

// Policy is the call policy between the engine and a failing service: a
// circuit breaker around a retry loop.
//
// The breaker admits each Invoke and each Fetch once. Inside it, an
// attempt that fails with ErrTransient is repeated up to policyRetries
// times, sleeping a jittered exponential backoff on the clock between
// attempts; the breaker then records the outcome of the whole retried
// operation, so a give-up counts as one failure. After policyThreshold
// consecutive failures the circuit trips open and calls are rejected
// with ErrOpen without touching the service; once policyCooldown has
// passed on the clock it half-opens and lets a single probe through —
// success closes it, failure re-trips it.
//
// Backoff sleeps and cooldowns run on the clock given at construction;
// the engine's Clock satisfies TimeSource, so a virtual-clock run charges
// them into simulated time. Non-transient errors pass through without a
// retry; only transient and permanent ones count toward a trip, never
// exhaustion, cancellation, budget or binding errors. A spent budget or
// a cancelled context ends the retry loop before its next backoff. The
// policy is safe for concurrent use; the jitter draws are seeded, so a
// serialized run replays the same schedule.
type Policy struct {
	inner Service
	clock TimeSource

	retried  atomic.Int64
	giveups  atomic.Int64
	tripped  atomic.Int64
	rejected atomic.Int64

	mu          sync.Mutex // guards rng and the circuit below
	rng         *rand.Rand
	state       breakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

// String names the state for trace events.
func (s breakerState) String() string {
	switch s {
	case breakerClosed:
		return "closed"
	case breakerOpen:
		return "open"
	default:
		return "half-open"
	}
}

// NewPolicy wraps svc in the call policy. Backoff and cooldown run on
// clock, which must not be nil; seed drives the jitter draws.
func NewPolicy(svc Service, clock TimeSource, seed int64) *Policy {
	if clock == nil {
		panic("service: NewPolicy needs a clock")
	}
	return &Policy{inner: svc, clock: clock, rng: rand.New(rand.NewSource(seed))}
}

// Resilience implements ResilienceReporter.
func (p *Policy) Resilience() ResilienceStats {
	return ResilienceStats{
		Retries: p.retried.Load(), GiveUps: p.giveups.Load(),
		Tripped: p.tripped.Load(), Rejected: p.rejected.Load(),
	}
}

// Unwrap implements Wrapper.
func (p *Policy) Unwrap() Service { return p.inner }

// Interface implements Service.
func (p *Policy) Interface() *mart.Interface { return p.inner.Interface() }

// Stats implements Service.
func (p *Policy) Stats() Stats { return p.inner.Stats() }

// Invoke implements Service under the policy.
func (p *Policy) Invoke(ctx context.Context, in Input) (Invocation, error) {
	var inv Invocation
	err := p.call(ctx, func() (err error) {
		inv, err = p.inner.Invoke(ctx, in)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &policyInvocation{policy: p, inner: inv}, nil
}

type policyInvocation struct {
	policy *Policy
	inner  Invocation
}

// Fetch implements Invocation under the policy.
func (pi *policyInvocation) Fetch(ctx context.Context) (Chunk, error) {
	var chunk Chunk
	err := pi.policy.call(ctx, func() (err error) {
		chunk, err = pi.inner.Fetch(ctx)
		return err
	})
	return chunk, err
}

// call runs one operation behind the circuit, retrying it inside.
func (p *Policy) call(ctx context.Context, op func() error) error {
	if err := p.admit(ctx); err != nil {
		return err
	}
	err := p.retry(ctx, op)
	p.record(ctx, err)
	return err
}

// retry runs op, repeating transient failures after a backoff.
func (p *Policy) retry(ctx context.Context, op func() error) error {
	for tries := 0; ; tries++ {
		err := op()
		if err == nil || !errors.Is(err, ErrTransient) {
			return err
		}
		if tries >= policyRetries {
			p.giveups.Add(1)
			obs.ScopeFrom(ctx).Event("retry-giveup", obs.KI("attempts", policyRetries))
			return fmt.Errorf("service %s: giving up after %d retries: %w",
				p.inner.Interface().Name, policyRetries, err)
		}
		if ctxErr := ctx.Err(); ctxErr != nil {
			return ctxErr
		}
		// A spent execution budget is never slept against: surface it
		// instead of burning more simulated or real time on backoff.
		if budgetErr := CheckBudget(ctx); budgetErr != nil {
			return budgetErr
		}
		p.retried.Add(1)
		d := p.backoff(tries)
		obs.ScopeFrom(ctx).Event("retry", obs.KI("attempt", int64(tries+1)), obs.KD("backoff", d))
		p.clock.Sleep(d)
	}
}

// backoff is the delay before retry attempt tries (0-based): the base
// doubled per earlier attempt, less the seeded jitter draw.
func (p *Policy) backoff(tries int) time.Duration {
	d := float64(policyBackoff) * float64(int64(1)<<tries)
	p.mu.Lock()
	d -= policyJitter * p.rng.Float64() * d
	p.mu.Unlock()
	return time.Duration(d)
}

// admit decides whether an operation may proceed, half-opening the
// circuit once the cooldown has passed.
func (p *Policy) admit(ctx context.Context) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch p.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if p.clock.Now().Sub(p.openedAt) >= policyCooldown {
			p.state = breakerHalfOpen
			p.probing = true
			obs.ScopeFrom(ctx).Event("breaker-half-open")
			return nil
		}
	case breakerHalfOpen:
		if !p.probing {
			p.probing = true
			return nil
		}
	}
	p.rejected.Add(1)
	obs.ScopeFrom(ctx).Event("breaker-reject", obs.KV("state", p.state.String()))
	return fmt.Errorf("service %s: %w", p.inner.Interface().Name, ErrOpen)
}

// record folds an operation's outcome into the circuit. Only failures of
// the service itself count toward the streak: injected faults and real
// outages (transient or permanent), not exhaustion, cancellation or
// binding errors.
func (p *Policy) record(ctx context.Context, err error) {
	failure := err != nil && (errors.Is(err, ErrTransient) || errors.Is(err, ErrPermanent))
	if err != nil && !failure {
		return // neutral outcome: leaves the streak and state alone
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.probing = false
	if err == nil {
		p.consecutive = 0
		if p.state == breakerHalfOpen {
			p.state = breakerClosed
			obs.ScopeFrom(ctx).Event("breaker-close")
		}
		return
	}
	p.consecutive++
	if p.state == breakerHalfOpen || (p.state == breakerClosed && p.consecutive >= policyThreshold) {
		p.state = breakerOpen
		p.openedAt = p.clock.Now()
		p.tripped.Add(1)
		obs.ScopeFrom(ctx).Event("breaker-trip", obs.KI("consecutive", int64(p.consecutive)))
	}
}
