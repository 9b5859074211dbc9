package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"seco/internal/mart"
	"seco/internal/obs"
)

// Counter wraps a Service and counts its request-responses, optionally
// charging the service's published latency to a delay hook on every
// fetch. The request-response cost metric and the benchmark harness read
// the counters; the execution engine installs either a real sleep or a
// virtual-clock advance as the delay hook.
//
// The Counter is also the service layer's observability choke point: it
// is the only wrapper that sees both the logical call (invoke/fetch) and
// the latency charged for it, so it emits the per-call trace spans (into
// the scope carried by the context, if any) and feeds the per-alias
// metrics instruments installed by the Invoker.
//
// What is fixed for a run is read from plain fields, never from the
// context: the published latency (resolved at construction — Stats are
// fixed once bound) and, for a Counter of a RunScope, the run's budget
// and remaining-time probes and whether the run is traced (RunScope.Bind).
type Counter struct {
	inner Service
	// Delay, when non-nil, is invoked with the service latency on every
	// Fetch, before the fetch is served.
	Delay   func(time.Duration)
	latency time.Duration

	inst *instruments // per-alias metrics; nil means unmetered

	// budget returns the budget-exhaustion error once the run's budget is
	// spent; remaining reports what is left of it, bounding every call
	// with a per-call deadline. Either is nil when the run installs none.
	// untraced skips the scope lookup: the run records no spans.
	budget    func() error
	remaining func() time.Duration
	untraced  bool

	invocations atomic.Int64
	fetches     atomic.Int64
	tuples      atomic.Int64
}

// NewCounter wraps svc. A nil delay hook means fetches complete instantly.
func NewCounter(svc Service, delay func(time.Duration)) *Counter {
	return &Counter{inner: svc, Delay: delay, latency: svc.Stats().Latency}
}

// Unwrap implements Wrapper.
func (c *Counter) Unwrap() Service { return c.inner }

// Interface implements Service.
func (c *Counter) Interface() *mart.Interface { return c.inner.Interface() }

// Stats implements Service.
func (c *Counter) Stats() Stats { return c.inner.Stats() }

// Invoke implements Service, counting the invocation. The execution
// budget is checked first: the engine wraps every bound service in a
// Counter, so a spent budget stops every further Invoke and Fetch of the
// run at this single choke point.
func (c *Counter) Invoke(ctx context.Context, in Input) (Invocation, error) {
	if err := c.checkBudget(); err != nil {
		return nil, err
	}
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	sc := c.scope(ctx)
	var end func(time.Duration, ...obs.Attr)
	if sc.On() {
		end = sc.StartCall("invoke")
	}
	inv, err := c.inner.Invoke(ctx, in)
	if err != nil {
		if end != nil {
			end(0, obs.KV("err", errClass(err)))
		}
		return nil, err
	}
	if end != nil {
		end(0)
	}
	c.invocations.Add(1)
	c.inst.invoke()
	return &countedInvocation{counter: c, inner: inv}, nil
}

// Invocations returns the number of successful Invoke calls so far.
func (c *Counter) Invocations() int64 { return c.invocations.Load() }

// Fetches returns the number of request-responses (successful Fetch calls)
// so far; this is the quantity the request-response cost metric counts.
func (c *Counter) Fetches() int64 { return c.fetches.Load() }

// Tuples returns the total number of tuples served so far.
func (c *Counter) Tuples() int64 { return c.tuples.Load() }

// Reset zeroes all counters.
func (c *Counter) Reset() {
	c.invocations.Store(0)
	c.fetches.Store(0)
	c.tuples.Store(0)
}

type countedInvocation struct {
	counter *Counter
	inner   Invocation
	chunks  atomic.Int64 // fetch depth served through this invocation
}

// Fetch implements Invocation: it charges latency, performs the fetch and
// updates the counters. Exhausted fetches are not counted as
// request-responses — and not traced as calls — because no call would be
// issued for them.
func (ci *countedInvocation) Fetch(ctx context.Context) (Chunk, error) {
	c := ci.counter
	if err := c.checkBudget(); err != nil {
		return Chunk{}, err
	}
	ctx, cancel := c.callContext(ctx)
	defer cancel()
	depth := ci.chunks.Load() + 1
	sc := c.scope(ctx)
	var end func(time.Duration, ...obs.Attr)
	if sc.On() {
		end = sc.StartCall("fetch", obs.KI("chunk", depth))
	}
	chunk, err := ci.inner.Fetch(ctx)
	if err != nil {
		if end != nil {
			attr := obs.KV("err", errClass(err))
			if errors.Is(err, ErrExhausted) {
				attr = obs.KV("exhausted", "true")
			}
			end(0, attr)
		}
		return chunk, err
	}
	if d := c.Delay; d != nil {
		d(c.latency)
	}
	ci.chunks.Add(1)
	c.fetches.Add(1)
	c.tuples.Add(int64(len(chunk.Tuples)))
	if end != nil {
		end(c.latency, obs.KI("tuples", int64(len(chunk.Tuples))))
	}
	c.inst.fetch(c.latency, depth, len(chunk.Tuples))
	return chunk, nil
}

// checkBudget returns the budget-exhaustion error once the run's budget
// is spent, nil otherwise or when the run has no budget.
func (c *Counter) checkBudget() error {
	if c.budget == nil {
		return nil
	}
	return c.budget()
}

// scope returns the trace scope of a call: the one the operator attached
// to the context, or nil without a lookup when the run is untraced.
func (c *Counter) scope(ctx context.Context) *obs.Scope {
	if c.untraced {
		return nil
	}
	return obs.ScopeFrom(ctx)
}

// callContext derives the per-call context: when the run installed a
// remaining-time probe (wall-clock runs with an execution budget), every
// Invoke and Fetch carries its own deadline bounded by what is left of
// the budget, so a single stalled wire call can never outlive the run's
// deadline. Without a probe the context passes through untouched and the
// returned cancel is a no-op.
func (c *Counter) callContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.remaining == nil {
		return ctx, func() {}
	}
	rem := c.remaining()
	if rem < 0 {
		rem = 0
	}
	return context.WithTimeout(ctx, rem)
}

// errClass maps a service error onto a low-cardinality trace attribute.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrPermanent):
		return "permanent"
	case errors.Is(err, ErrOpen):
		return "breaker-open"
	case errors.Is(err, ErrExhausted):
		return "exhausted"
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return "canceled"
	default:
		return "transient"
	}
}
