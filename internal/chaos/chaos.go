// Package chaos is the deterministic fault-injection harness: it wraps
// live services in seeded, composable fault models — transient bursts and
// random transient rates, fail-forever-after-N, per-binding failures,
// latency spikes charged through the engine Clock — and sweeps the
// benchmark scenarios (movienight, conftravel) under many fault schedules,
// asserting the resilience invariants the execution engine promises:
// transient-only schedules leave the top-k untouched, and permanent
// failures or budget expiry degrade to a partial result whose certified
// prefix matches the fault-free reference.
//
// Every draw comes from a per-service RNG seeded from the FaultPlan seed
// and the service alias, so a schedule replays call-for-call under the
// engine's deterministic executors (Parallelism 1): same seed, same
// faults, same run.
package chaos

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/service"
)

// Fault classifies what a rule injects into one call.
type Fault int

const (
	// FaultNone lets the call through.
	FaultNone Fault = iota
	// FaultTransient fails the call with service.ErrTransient — a retry
	// may succeed.
	FaultTransient
	// FaultPermanent fails the call with service.ErrPermanent — the
	// service is gone for the rest of the run.
	FaultPermanent
)

// Call describes one intercepted operation for rule evaluation.
type Call struct {
	// Seq is the 0-based sequence number of the call on this service,
	// counting Invoke and Fetch together.
	Seq int
	// Op is "invoke" or "fetch".
	Op string
	// Input is the invocation binding (nil for fetches).
	Input service.Input
	// Draw is this call's deterministic uniform draw in [0,1).
	Draw float64
}

// Verdict is a rule's decision for one call.
type Verdict struct {
	// Fault is the injected failure, if any.
	Fault Fault
	// Delay is extra latency to charge to the injector's clock before the
	// call proceeds (only meaningful with FaultNone).
	Delay time.Duration
}

// Rule is one composable fault model. Rules are evaluated in order; the
// first non-FaultNone verdict wins, while delays accumulate across rules.
type Rule interface {
	Decide(c Call) Verdict
	// String describes the rule for sweep summaries.
	String() string
}

// TransientRate fails each call transiently with probability P.
type TransientRate struct{ P float64 }

// Decide implements Rule.
func (r TransientRate) Decide(c Call) Verdict {
	if c.Draw < r.P {
		return Verdict{Fault: FaultTransient}
	}
	return Verdict{}
}

func (r TransientRate) String() string { return fmt.Sprintf("transient(p=%.2f)", r.P) }

// TransientBurst fails calls [Start, Start+Len) transiently — a short
// outage that a persistent retry rides out.
type TransientBurst struct{ Start, Len int }

// Decide implements Rule.
func (r TransientBurst) Decide(c Call) Verdict {
	if c.Seq >= r.Start && c.Seq < r.Start+r.Len {
		return Verdict{Fault: FaultTransient}
	}
	return Verdict{}
}

func (r TransientBurst) String() string { return fmt.Sprintf("burst(%d+%d)", r.Start, r.Len) }

// FailAfter fails every call from sequence number N on permanently — the
// service dies mid-run and never comes back.
type FailAfter struct{ N int }

// Decide implements Rule.
func (r FailAfter) Decide(c Call) Verdict {
	if c.Seq >= r.N {
		return Verdict{Fault: FaultPermanent}
	}
	return Verdict{}
}

func (r FailAfter) String() string { return fmt.Sprintf("failAfter(%d)", r.N) }

// BindingFault fails invocations whose input binding carries the given
// value at Path — one poisoned key while the rest of the service stays
// healthy (a sharded backend with one dead shard).
type BindingFault struct {
	Path  string
	Value string
	Fault Fault
}

// Decide implements Rule. Value is compared against the binding's
// rendered form; string bindings also match their unquoted text, so
// BindingFault{Path: "City", Value: "Roma"} poisons City="Roma".
func (r BindingFault) Decide(c Call) Verdict {
	if c.Op != "invoke" || c.Input == nil {
		return Verdict{}
	}
	v, ok := c.Input.Get(r.Path)
	if !ok {
		return Verdict{}
	}
	if s := v.String(); s != r.Value && s != strconv.Quote(r.Value) {
		return Verdict{}
	}
	return Verdict{Fault: r.Fault}
}

func (r BindingFault) String() string {
	return fmt.Sprintf("binding(%s=%s)", r.Path, r.Value)
}

// LatencySpike charges Delay extra latency on every Every-th call
// (1-based: Every=3 delays calls 2, 5, 8, …). The delay is slept on the
// injector's clock, so on the engine's virtual clock a run accounts it
// into the simulated Elapsed without real waiting.
type LatencySpike struct {
	Every int
	Delay time.Duration
}

// Decide implements Rule.
func (r LatencySpike) Decide(c Call) Verdict {
	if r.Every > 0 && (c.Seq+1)%r.Every == 0 {
		return Verdict{Delay: r.Delay}
	}
	return Verdict{}
}

func (r LatencySpike) String() string {
	return fmt.Sprintf("spike(every=%d,+%v)", r.Every, r.Delay)
}

// Injector wraps a service and applies a rule set to every call. It is
// safe for concurrent use; under concurrent callers the sequence-number
// assignment follows scheduling order, so fully deterministic replays
// require the engine's serialized execution (Parallelism 1).
type Injector struct {
	inner service.Service
	clock service.TimeSource
	rules []Rule

	mu  sync.Mutex
	seq int
	rng *rand.Rand

	injected  atomic.Int64
	permanent atomic.Int64
	spikes    atomic.Int64
}

// NewInjector wraps svc with the given seeded rule set. Latency spikes
// are slept on clock, which must not be nil: hand it the engine's clock.
func NewInjector(svc service.Service, clock service.TimeSource, seed int64, rules ...Rule) *Injector {
	if clock == nil {
		panic("chaos: NewInjector needs a clock")
	}
	return &Injector{inner: svc, clock: clock, rules: rules, rng: rand.New(rand.NewSource(seed))}
}

// Injected reports the transient faults injected so far.
func (j *Injector) Injected() int { return int(j.injected.Load()) }

// Permanent reports the permanent faults injected so far.
func (j *Injector) Permanent() int { return int(j.permanent.Load()) }

// Spikes reports the latency spikes charged so far.
func (j *Injector) Spikes() int { return int(j.spikes.Load()) }

// Resilience implements service.ResilienceReporter.
func (j *Injector) Resilience() service.ResilienceStats {
	return service.ResilienceStats{
		Injected:  j.injected.Load(),
		Permanent: j.permanent.Load(),
		Spikes:    j.spikes.Load(),
	}
}

// Unwrap implements service.Wrapper.
func (j *Injector) Unwrap() service.Service { return j.inner }

// Interface implements service.Service.
func (j *Injector) Interface() *mart.Interface { return j.inner.Interface() }

// Stats implements service.Service.
func (j *Injector) Stats() service.Stats { return j.inner.Stats() }

// intercept evaluates the rules for one call and applies the verdict:
// charging delays, counting, tracing the injected event into the
// calling operator's lane, and returning the injected error, if any.
func (j *Injector) intercept(ctx context.Context, op string, in service.Input) error {
	j.mu.Lock()
	call := Call{Seq: j.seq, Op: op, Input: in, Draw: j.rng.Float64()}
	j.seq++
	verdict := Verdict{}
	for _, r := range j.rules {
		v := r.Decide(call)
		verdict.Delay += v.Delay
		if verdict.Fault == FaultNone && v.Fault != FaultNone {
			verdict.Fault = v.Fault
		}
	}
	j.mu.Unlock()

	if verdict.Delay > 0 {
		j.spikes.Add(1)
		obs.ScopeFrom(ctx).Event("chaos-spike", obs.KV("op", op), obs.KD("delay", verdict.Delay))
		j.clock.Sleep(verdict.Delay)
	}
	switch verdict.Fault {
	case FaultTransient:
		n := j.injected.Add(1)
		obs.ScopeFrom(ctx).Event("chaos-fault", obs.KV("op", op), obs.KV("kind", "transient"))
		return fmt.Errorf("chaos: service %s: injected transient %s failure #%d (call %d): %w",
			j.inner.Interface().Name, op, n, call.Seq, service.ErrTransient)
	case FaultPermanent:
		n := j.permanent.Add(1)
		obs.ScopeFrom(ctx).Event("chaos-fault", obs.KV("op", op), obs.KV("kind", "permanent"))
		return fmt.Errorf("chaos: service %s: injected permanent %s failure #%d (call %d): %w",
			j.inner.Interface().Name, op, n, call.Seq, service.ErrPermanent)
	}
	return nil
}

// Invoke implements service.Service under the fault schedule.
func (j *Injector) Invoke(ctx context.Context, in service.Input) (service.Invocation, error) {
	if err := j.intercept(ctx, "invoke", in); err != nil {
		return nil, err
	}
	inv, err := j.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &injectedInvocation{injector: j, inner: inv}, nil
}

type injectedInvocation struct {
	injector *Injector
	inner    service.Invocation
}

// Fetch implements service.Invocation under the fault schedule.
func (ii *injectedInvocation) Fetch(ctx context.Context) (service.Chunk, error) {
	if err := ii.injector.intercept(ctx, "fetch", nil); err != nil {
		return service.Chunk{}, err
	}
	return ii.inner.Fetch(ctx)
}

// FaultPlan is a deterministic, seeded fault schedule over a set of
// services keyed by query alias. Aliases without rules pass through
// unwrapped.
type FaultPlan struct {
	// Seed anchors every per-service RNG; the same seed replays the same
	// schedule.
	Seed int64
	// Rules assigns each alias its composable fault models.
	Rules map[string][]Rule
}

// aliasSeed derives a stable per-alias seed, so adding a rule for one
// alias never shifts another alias's draws.
func (p FaultPlan) aliasSeed(alias string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", p.Seed, alias)
	return int64(h.Sum64())
}

// Wrap applies the plan to a service set, returning the wrapped set and
// the injector handles for counter inspection. Latency spikes are slept
// on clock: pass the clock of the engine that will run the set.
func (p FaultPlan) Wrap(services map[string]service.Service, clock service.TimeSource) (map[string]service.Service, map[string]*Injector) {
	wrapped := make(map[string]service.Service, len(services))
	injectors := map[string]*Injector{}
	for alias, svc := range services {
		rules, ok := p.Rules[alias]
		if !ok || len(rules) == 0 {
			wrapped[alias] = svc
			continue
		}
		j := NewInjector(svc, clock, p.aliasSeed(alias), rules...)
		injectors[alias] = j
		wrapped[alias] = j
	}
	return wrapped, injectors
}
