package service

import (
	"time"

	"seco/internal/obs"
)

// Invoker is the single service-call choke point beneath the execution
// engine's operators. It owns, exactly once per engine, the concerns the
// two executors used to wire separately per run:
//
//   - the middleware composition order: per-run Counter (budget probe,
//     latency charge, logical call counting) over the optional Hedge
//     (one second attempt for a hedgeable failure) over the optional
//     Share layer (cross-query singleflight + memo) over the
//     user-supplied chain (call Policy, chaos injectors) over the base
//     service;
//   - per-run counter isolation: every execution counts in a RunScope of
//     its own, so N concurrent queries through one engine never mix their
//     Run stats;
//   - cross-query call sharing: with Share enabled, aliases bound to the
//     same underlying service funnel through one Share layer, so
//     overlapping queries deduplicate in-flight wire calls and replay
//     memoized chunks.
type Invoker struct {
	delay  func(time.Duration)
	lanes  map[string]Service // per alias: [Hedge →] [Share →] user chain → base
	shares []*Share
	inst   map[string]*instruments // per alias; nil when unmetered
}

// InvokerOptions configures an Invoker.
type InvokerOptions struct {
	// Delay, when non-nil, is invoked with the service latency on every
	// counted fetch (real sleep or virtual-clock advance).
	Delay func(time.Duration)
	// Share enables the cross-query call-sharing layer. Aliases bound to
	// the same underlying Service value share one layer, reproducing the
	// one-cache-per-interface behavior of the former per-run Cache
	// wrapping — but engine-wide and safe across concurrent runs.
	Share bool
	// Metrics, when non-nil, receives per-alias call counters and
	// latency/chunk-depth histograms (fed by each run's Counters) and
	// per-service share-layer counters. Nil keeps the hot path
	// unmetered.
	Metrics *obs.Registry
	// Hedge mounts a hedging layer on every lane, above Share: hedgeable
	// primary failures get one immediate second attempt. Mounting above
	// Share keeps hedges exempt from duplicate upstream load — a hedged
	// pair coalesces on Share's singleflight/memo.
	Hedge bool
}

// NewInvoker builds the choke point over the bound services. The map
// values are the complete user middleware chains (resilience wrappers
// already applied); the Invoker adds its own layers above them.
func NewInvoker(services map[string]Service, opts InvokerOptions) *Invoker {
	inv := &Invoker{delay: opts.Delay, lanes: map[string]Service{}, shares: nil}
	if opts.Metrics != nil {
		inv.inst = map[string]*instruments{}
		for alias := range services {
			inv.inst[alias] = newInstruments(opts.Metrics, alias)
		}
	}
	sharesBySvc := map[Service]*Share{}
	for alias, svc := range services {
		lane := svc
		if opts.Share {
			sh, ok := sharesBySvc[svc]
			if !ok {
				sh = NewShare(svc)
				sh.bindMetrics(opts.Metrics)
				sharesBySvc[svc] = sh
				inv.shares = append(inv.shares, sh)
			}
			lane = sh
		}
		if opts.Hedge {
			h := NewHedge(lane)
			h.bindMetrics(opts.Metrics, alias)
			lane = h
		}
		inv.lanes[alias] = lane
	}
	return inv
}

// Lane returns the alias's service chain as seen by a run's Counter
// (including the Share layer when sharing is on).
func (inv *Invoker) Lane(alias string) (Service, bool) {
	lane, ok := inv.lanes[alias]
	return lane, ok
}

// Sharing reports whether the cross-query call-sharing layer is active.
func (inv *Invoker) Sharing() bool { return len(inv.shares) > 0 }

// ShareStats sums the counters of all share layers. Zero-valued when
// sharing is off.
func (inv *Invoker) ShareStats() ShareStats {
	var sum ShareStats
	for _, sh := range inv.shares {
		sum.Add(sh.Counters())
	}
	return sum
}

// NewRun opens an isolated counting scope: a fresh Counter per alias over
// the shared lanes. A scope counts one execution at a time — its holder
// resets the Counters before the next — and concurrent runs each hold
// their own scope and may proceed simultaneously.
func (inv *Invoker) NewRun() *RunScope {
	scope := &RunScope{counters: map[string]*Counter{}}
	for alias, lane := range inv.lanes {
		c := NewCounter(lane, inv.delay)
		c.inst = inv.inst[alias]
		scope.counters[alias] = c
	}
	return scope
}

// instruments bundles one alias's metrics handles. All methods are
// nil-safe so the Counter's hot path needs no registry branching.
type instruments struct {
	invocations *obs.Counter
	fetches     *obs.Counter
	tuples      *obs.Counter
	latencyMS   *obs.Histogram
	chunkDepth  *obs.Histogram
}

func newInstruments(reg *obs.Registry, alias string) *instruments {
	return &instruments{
		invocations: reg.Counter("seco.invoker.invocations." + alias),
		fetches:     reg.Counter("seco.invoker.fetches." + alias),
		tuples:      reg.Counter("seco.invoker.tuples." + alias),
		latencyMS:   reg.Histogram("seco.invoker.latency_ms."+alias, obs.LatencyBucketsMS),
		chunkDepth:  reg.Histogram("seco.invoker.chunk_depth."+alias, obs.DepthBuckets),
	}
}

func (i *instruments) invoke() {
	if i == nil {
		return
	}
	i.invocations.Add(1)
}

func (i *instruments) fetch(latency time.Duration, depth int64, tuples int) {
	if i == nil {
		return
	}
	i.fetches.Add(1)
	i.tuples.Add(int64(tuples))
	i.latencyMS.Observe(float64(latency) / float64(time.Millisecond))
	i.chunkDepth.Observe(float64(depth))
}

// RunScope is one execution's private view of the Invoker: per-alias
// Counters (budget probe, latency charge, logical call counts) over the
// engine-wide lanes.
type RunScope struct {
	counters map[string]*Counter
}

// Bind hands the run's fixed call state to every Counter of the scope,
// before the run's first call: budget returns the budget-exhaustion error
// once the execution budget is spent, remaining reports what is left of
// it so each call gets a deadline (either may be nil), and traced says
// whether the run records spans. An unbound scope checks no budget and
// looks the trace scope up on every call.
func (r *RunScope) Bind(budget func() error, remaining func() time.Duration, traced bool) {
	for _, c := range r.counters {
		c.budget, c.remaining, c.untraced = budget, remaining, !traced
	}
}

// Counter returns the run's counting wrapper for an alias, or nil when
// the alias is not bound.
func (r *RunScope) Counter(alias string) *Counter { return r.counters[alias] }

// Counters exposes the full per-alias counter map (read-only by
// convention) for run-report assembly.
func (r *RunScope) Counters() map[string]*Counter { return r.counters }
