package service

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"seco/internal/mart"
	"seco/internal/obs"
)

// Hedge wraps a service with hedged calls: when the primary attempt fails
// with a hedgeable error — a transient failure that survived the retry
// chain below, or a per-call deadline that expired while the surrounding
// run is still live — the layer immediately issues one second attempt and
// returns its result if it succeeds. The hedge is backoff-free by design:
// it is the last resort above the resilience chain, not another retry
// loop, and it composes with Retry and Breaker rather than replacing them
// (an open circuit is never hedged — ErrOpen is not hedgeable — so a
// hedge never hammers a breaker that just tripped).
//
// The Invoker mounts the Hedge above the Share layer, which is what makes
// hedging safe under load: a hedged attempt for a chunk funnels through
// Share's singleflight and memo, so a hedged pair performs at most one
// successful upstream fetch per chunk — the duplicate is absorbed as a
// dedup join or memo hit, never as duplicate wire traffic.
//
// The layer also watches for slow primaries: every successful fetch is
// compared against a latency-percentile trigger fed by the invoker's
// latency histogram (Stats().Latency when the histogram is still cold).
// Under the engine's deterministic sequential composition a hedge raced
// against a completed primary is observationally equivalent to not
// issuing it — Share would coalesce it onto the already-memoized chunk —
// so slow-but-successful calls are counted (seco.hedge.late) rather than
// duplicated. Timing flows through the TimeSource the engine installs, so
// virtual-clock runs evaluate the trigger deterministically in simulated
// time; with no time source the trigger is disabled and only failure
// hedging remains.
type Hedge struct {
	inner  Service
	policy HedgePolicy
	// lat is the published-latency histogram feeding the slow-call
	// trigger (the Invoker passes its seco.invoker.latency_ms.<alias>
	// instrument); nil falls back to Stats().Latency.
	lat *obs.Histogram
	// latency is the wrapped service's published latency, resolved once:
	// Stats are fixed once bound.
	latency time.Duration
	clock   atomic.Pointer[tsBox]

	attempts atomic.Int64
	wins     atomic.Int64
	late     atomic.Int64

	mAttempts *obs.Counter
	mWins     *obs.Counter
	mLate     *obs.Counter
}

// HedgePolicy tunes the hedging layer. The zero value selects the
// defaults noted per field.
type HedgePolicy struct {
	// Percentile is the latency quantile of the trigger (default 0.99).
	Percentile float64
	// Multiplier scales the quantile into the trigger threshold
	// (default 1.5).
	Multiplier float64
	// MinSamples is how many histogram observations the quantile needs
	// before it is trusted over the published Stats().Latency
	// (default 20).
	MinSamples int64
	// Floor is the minimum trigger threshold (default 1ms).
	Floor time.Duration
}

// NewHedge wraps svc in a hedging layer.
func NewHedge(svc Service, policy HedgePolicy) *Hedge {
	return &Hedge{inner: svc, policy: policy, latency: svc.Stats().Latency}
}

// SetLatencySource installs the latency histogram feeding the slow-call
// trigger.
func (h *Hedge) SetLatencySource(lat *obs.Histogram) { h.lat = lat }

// bindMetrics registers the layer's counters on reg under the alias.
func (h *Hedge) bindMetrics(reg *obs.Registry, alias string) {
	if reg == nil {
		return
	}
	h.mAttempts = reg.Counter("seco.hedge.attempts." + alias)
	h.mWins = reg.Counter("seco.hedge.wins." + alias)
	h.mLate = reg.Counter("seco.hedge.late." + alias)
}

// Hedged reports how many second attempts were issued.
func (h *Hedge) Hedged() int { return int(h.attempts.Load()) }

// Wins reports how many hedged attempts recovered the call.
func (h *Hedge) Wins() int { return int(h.wins.Load()) }

// Late reports how many successful primaries exceeded the trigger.
func (h *Hedge) Late() int { return int(h.late.Load()) }

// Resilience implements ResilienceReporter.
func (h *Hedge) Resilience() ResilienceStats {
	return ResilienceStats{Hedges: h.attempts.Load(), HedgeWins: h.wins.Load()}
}

// Unwrap implements Wrapper.
func (h *Hedge) Unwrap() Service { return h.inner }

// SetTimeSource implements TimeSourceSetter: the slow-call trigger is
// measured on ts.
func (h *Hedge) SetTimeSource(ts TimeSource) { h.clock.Store(&tsBox{ts: ts}) }

// Interface implements Service.
func (h *Hedge) Interface() *mart.Interface { return h.inner.Interface() }

// Stats implements Service.
func (h *Hedge) Stats() Stats { return h.inner.Stats() }

// hedgeable reports whether a failed primary attempt is worth hedging:
// transient failures (the chain below already gave up on them) and
// expired per-call deadlines. Permanent faults, open circuits, exhausted
// streams and canceled runs are not — a second attempt would fail
// identically or outlive its caller.
func hedgeable(err error) bool {
	return errors.Is(err, ErrTransient) || errors.Is(err, context.DeadlineExceeded)
}

// trigger returns the slow-call threshold: the configured percentile of
// the observed per-call latency (published latency while the histogram is
// cold), scaled by the multiplier and floored.
func (h *Hedge) trigger() time.Duration {
	pct, mult, minSamples := h.policy.Percentile, h.policy.Multiplier, h.policy.MinSamples
	if pct <= 0 {
		pct = 0.99
	}
	if mult <= 0 {
		mult = 1.5
	}
	if minSamples <= 0 {
		minSamples = 20
	}
	floor := h.policy.Floor
	if floor <= 0 {
		floor = time.Millisecond
	}
	var base time.Duration
	if h.lat != nil && h.lat.Count() >= minSamples {
		base = time.Duration(h.lat.Quantile(pct) * float64(time.Millisecond))
	} else {
		base = h.latency
	}
	t := time.Duration(float64(base) * mult)
	if t < floor {
		t = floor
	}
	return t
}

// Invoke implements Service, hedging a failed primary invocation once.
func (h *Hedge) Invoke(ctx context.Context, in Input) (Invocation, error) {
	inv, err := h.inner.Invoke(ctx, in)
	if err == nil {
		return &hedgeInvocation{hedge: h, inner: inv}, nil
	}
	if !hedgeable(err) || ctx.Err() != nil {
		return nil, err
	}
	h.attempts.Add(1)
	h.mAttempts.Add(1)
	obs.ScopeFrom(ctx).Event("hedge-invoke")
	inv, err2 := h.inner.Invoke(ctx, in)
	if err2 != nil {
		return nil, err // the primary error names the original failure
	}
	h.wins.Add(1)
	h.mWins.Add(1)
	return &hedgeInvocation{hedge: h, inner: inv}, nil
}

// hedgeInvocation is one caller's cursor over the hedged service.
type hedgeInvocation struct {
	hedge *Hedge
	inner Invocation
}

// Fetch implements Invocation. A hedgeable primary failure is re-fetched
// immediately: by the service-layer convention a failed Fetch does not
// advance the stream cursor (Share memoizes only successes, invocations
// count only successes), so the second attempt targets the same chunk —
// through Share's singleflight, so it coalesces with any concurrent
// attempt instead of duplicating the wire call. A successful primary that
// exceeds the latency trigger is counted as late; the hedge it would have
// raced is a no-op under the dedup layer, so none is issued.
func (hi *hedgeInvocation) Fetch(ctx context.Context) (Chunk, error) {
	h := hi.hedge
	var ts TimeSource
	var start time.Time
	if box := h.clock.Load(); box != nil && box.ts != nil {
		ts = box.ts
		start = ts.Now()
	}
	chunk, err := hi.inner.Fetch(ctx)
	if err == nil {
		if ts != nil {
			// The charged cost of this call is everything the layers below
			// slept (spikes, backoff) plus the published latency the
			// Counter above is about to charge.
			took := ts.Now().Sub(start) + h.latency
			if took > h.trigger() {
				h.late.Add(1)
				h.mLate.Add(1)
				obs.ScopeFrom(ctx).Event("hedge-late")
			}
		}
		return chunk, nil
	}
	if !hedgeable(err) || ctx.Err() != nil {
		return chunk, err
	}
	h.attempts.Add(1)
	h.mAttempts.Add(1)
	obs.ScopeFrom(ctx).Event("hedge-fetch")
	chunk2, err2 := hi.inner.Fetch(ctx)
	if err2 != nil {
		return chunk, err
	}
	h.wins.Add(1)
	h.mWins.Add(1)
	return chunk2, nil
}
