package service

import (
	"context"
	"errors"
	"sync/atomic"

	"seco/internal/mart"
	"seco/internal/obs"
)

// Hedge wraps a service with hedged calls: when the primary attempt fails
// with a hedgeable error — a transient failure that survived the layers
// below, or a per-call deadline that expired while the surrounding run is
// still live — the layer immediately issues one second attempt and
// returns its result if it succeeds. The hedge is backoff-free by design:
// it is the last resort above the call chain, not another retry loop (an
// open circuit is never hedged — ErrOpen is not hedgeable — so a hedge
// never hammers a breaker that just tripped).
//
// The Invoker mounts the Hedge above the Share layer, which is what makes
// hedging safe under load: a hedged attempt for a chunk funnels through
// Share's singleflight and memo, so a hedged pair performs at most one
// successful upstream fetch per chunk — the duplicate is absorbed as a
// dedup join or memo hit, never as duplicate wire traffic.
type Hedge struct {
	inner Service

	attempts atomic.Int64
	wins     atomic.Int64

	mAttempts *obs.Counter
	mWins     *obs.Counter
}

// HedgePolicy selects the hedging layer in engine.Config. It has no
// fields: the Hedge has nothing to tune. It stays a struct because
// secobench's staged replay (bench/layers.go) builds
// engine.Config{Hedge: &service.HedgePolicy{}}.
type HedgePolicy struct{}

// NewHedge wraps svc in a hedging layer.
func NewHedge(svc Service) *Hedge {
	return &Hedge{inner: svc}
}

// bindMetrics registers the layer's counters on reg under the alias.
func (h *Hedge) bindMetrics(reg *obs.Registry, alias string) {
	if reg == nil {
		return
	}
	h.mAttempts = reg.Counter("seco.hedge.attempts." + alias)
	h.mWins = reg.Counter("seco.hedge.wins." + alias)
}

// Resilience implements ResilienceReporter.
func (h *Hedge) Resilience() ResilienceStats {
	return ResilienceStats{Hedges: h.attempts.Load(), HedgeWins: h.wins.Load()}
}

// Unwrap implements Wrapper.
func (h *Hedge) Unwrap() Service { return h.inner }

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
// attempt instead of duplicating the wire call.
func (hi *hedgeInvocation) Fetch(ctx context.Context) (Chunk, error) {
	h := hi.hedge
	chunk, err := hi.inner.Fetch(ctx)
	if err == nil {
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
