// Package core is the public face of the library: a System bundles the
// design-time registry (marts, interfaces, connection patterns), the
// runtime services bound to each interface, and the full query-processing
// chain — parse, analyze, check feasibility, optimize with branch and
// bound, and execute the winning plan against the bound services.
//
//	sys, inputs, _ := core.MovieNight(7)
//	q, _ := sys.Parse(query.RunningExampleText)
//	res, _ := sys.Plan(q, core.PlanOptions{K: 10})
//	run, _ := sys.Run(ctx, res, core.RunOptions{Inputs: inputs})
package core

import (
	"context"
	"fmt"
	"time"

	"seco/internal/cost"
	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/types"
)

// System is a configured Search Computing instance.
type System struct {
	reg      *mart.Registry
	services map[string]service.Service // by interface name
	stats    map[string]service.Stats   // each bound service's statistics, read once at Bind
}

// NewSystem returns an empty system with a fresh registry.
func NewSystem() *System {
	return NewSystemWith(mart.NewRegistry())
}

// NewSystemWith wraps an existing registry.
func NewSystemWith(reg *mart.Registry) *System {
	return &System{reg: reg, services: map[string]service.Service{}, stats: map[string]service.Stats{}}
}

// Registry exposes the design-time registry for mart/pattern registration.
func (s *System) Registry() *mart.Registry { return s.reg }

// Bind attaches a runtime service to its interface. The interface must be
// registered and the service must implement it.
func (s *System) Bind(svc service.Service) error {
	name := svc.Interface().Name
	if _, ok := s.reg.Interface(name); !ok {
		return fmt.Errorf("core: binding service for unregistered interface %q", name)
	}
	if _, dup := s.services[name]; dup {
		return fmt.Errorf("core: interface %q already bound", name)
	}
	s.services[name] = svc
	s.stats[name] = svc.Stats()
	return nil
}

// Service returns the service bound to an interface.
func (s *System) Service(ifaceName string) (service.Service, bool) {
	svc, ok := s.services[ifaceName]
	return svc, ok
}

// Parse parses and analyzes a query against the system registry.
func (s *System) Parse(src string) (*query.Query, error) {
	q, err := query.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := q.Analyze(s.reg); err != nil {
		return nil, err
	}
	return q, nil
}

// PlanOptions configures optimization.
type PlanOptions struct {
	// K is the number of requested combinations (default 10).
	K int
	// Metric names the cost metric (default "request-response").
	Metric string
	// Heuristics select branch orderings (zero value = bound-is-better,
	// selective-first, greedy).
	Heuristics optimizer.Heuristics
	// MaxPlans bounds the anytime search (0 = exhaust).
	MaxPlans int
	// ExploreInterfaces lets phase 1 consider every interface of each
	// mart instead of the ones the query names.
	ExploreInterfaces bool
	// DisableMultiway restricts phase 2 to binary join trees, never
	// proposing the n-ary multijoin for eligible parallel groups.
	DisableMultiway bool
}

// Plan optimizes an analyzed query into a fully instantiated plan, taking
// service statistics from the bound services.
func (s *System) Plan(q *query.Query, opts PlanOptions) (*optimizer.Result, error) {
	metricName := opts.Metric
	if metricName == "" {
		metricName = "request-response"
	}
	metric, err := cost.ByName(metricName)
	if err != nil {
		return nil, err
	}
	return optimizer.Optimize(q, s.reg, optimizer.Options{
		K:                opts.K,
		Metric:           metric,
		Heuristics:       opts.Heuristics,
		StatsByInterface: s.stats,
		MaxPlans:         opts.MaxPlans,
		FixedInterfaces:  !opts.ExploreInterfaces,
		DisableMultiway:  opts.DisableMultiway,
	})
}

// RunOptions configures execution.
type RunOptions struct {
	// Inputs binds the query's INPUT variables.
	Inputs map[string]types.Value
	// Parallelism bounds concurrent pipe-join invocations (default 8).
	Parallelism int
	// LiveLatency makes every fetch sleep the service's published
	// latency, so wall-clock measurements reflect the cost model.
	LiveLatency bool
	// CacheCalls enables the engine's call-sharing layer: service chunks
	// are memoized per input binding and concurrent fetches of the same
	// chunk are deduplicated in flight, cutting repeated pipe-join wire
	// calls (results are unchanged). Aliases bound to the same interface
	// share one layer.
	CacheCalls bool
	// Materialize selects the materialize-then-truncate executor instead
	// of the default pull-based streaming pipeline (see package engine).
	Materialize bool
	// Budget bounds the execution time as measured on the engine clock
	// (virtual when LiveLatency is off); 0 means unbounded.
	Budget time.Duration
	// Degrade returns a partial result with Run.Degraded populated when
	// a service fails permanently or the Budget expires mid-run, instead
	// of an error (streaming executor only).
	Degrade bool
	// Trace, when non-nil, records per-operator spans for the execution
	// (see engine.RunOptions.Trace). Pass a fresh obs.NewTracer per Run.
	Trace *obs.Tracer
	// Metrics, when non-nil, registers the engine's instruments (per-alias
	// call counters, latency/chunk-depth histograms, share-layer hits,
	// driver counters); Metrics.Text() dumps it.
	Metrics *obs.Registry
	// Fidelity enables the per-node estimate-vs-actual accounting and
	// fills Run.Fidelity with the q-error report (see engine.Options).
	Fidelity bool
	// DriftThreshold overrides the fidelity report's one-sided drift
	// factor (0 = fidelity.DefaultThreshold).
	DriftThreshold float64
}

// Run executes an optimized plan and returns the ranked combinations.
func (s *System) Run(ctx context.Context, res *optimizer.Result, opts RunOptions) (*engine.Run, error) {
	e, err := s.engineFor(res, opts)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, res.Annotated, engine.Options{
		Inputs:         opts.Inputs,
		Weights:        res.Query.Weights,
		TargetK:        res.Plan.K,
		Parallelism:    opts.Parallelism,
		Materialize:    opts.Materialize,
		Budget:         opts.Budget,
		Degrade:        opts.Degrade,
		Trace:          opts.Trace,
		Fidelity:       opts.Fidelity,
		DriftThreshold: opts.DriftThreshold,
	})
}

// RunToK executes an optimized plan and, when the statistics-based fetch
// assignment under-delivers (estimation error, Section 3.2's independence
// assumptions), automatically continues the plan execution with doubled
// fetching factors until K combinations are produced, the services are
// exhausted, or maxRounds is hit. It returns the best K combinations
// found and the last round's Run.
func (s *System) RunToK(ctx context.Context, res *optimizer.Result, opts RunOptions, maxRounds int) ([]*types.Combination, *engine.Run, error) {
	if maxRounds <= 0 {
		maxRounds = 5
	}
	e, err := s.engineFor(res, opts)
	if err != nil {
		return nil, nil, err
	}
	fetches := map[string]int{}
	for k, v := range res.Annotated.Fetches {
		fetches[k] = v
	}
	k := res.Plan.K
	var last *engine.Run
	for round := 0; round < maxRounds; round++ {
		a, err := plan.Annotate(res.Plan, fetches)
		if err != nil {
			return nil, nil, err
		}
		run, err := e.Execute(ctx, a, engine.Options{
			Inputs:      opts.Inputs,
			Weights:     res.Query.Weights,
			TargetK:     k,
			Parallelism: opts.Parallelism,
			Materialize: opts.Materialize,
			Budget:      opts.Budget,
			Degrade:     opts.Degrade,
			Trace:       opts.Trace,
		})
		if err != nil {
			return nil, nil, err
		}
		if last != nil && len(run.Combinations) == len(last.Combinations) {
			// No progress: the services are exhausted for this query.
			return run.Combinations, run, nil
		}
		last = run
		if len(run.Combinations) >= k {
			return run.Combinations, run, nil
		}
		grew := false
		for _, id := range res.Plan.NodeIDs() {
			n, ok := res.Plan.Node(id)
			if ok && n.Kind == plan.KindService && n.Stats.Chunked() {
				f := fetches[id]
				if f <= 0 {
					f = 1
				}
				fetches[id] = f * 2
				grew = true
			}
		}
		if !grew {
			return run.Combinations, run, nil
		}
	}
	return last.Combinations, last, nil
}

// Session opens a resumable execution ("more results") over an optimized
// plan.
func (s *System) Session(res *optimizer.Result, opts RunOptions) (*engine.Session, error) {
	e, err := s.engineFor(res, opts)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(e, res.Plan, res.Annotated.Fetches, engine.Options{
		Inputs:      opts.Inputs,
		Weights:     res.Query.Weights,
		TargetK:     res.Plan.K,
		Parallelism: opts.Parallelism,
		Materialize: opts.Materialize,
	}), nil
}

// Engine builds the execution engine a Run for this plan would use —
// per-alias service bindings, clock/delay policy, sharing layer and
// metrics registry. Long-lived callers (the secoserve debug server, the
// Session API) hold one Engine and execute many runs against it, so the
// sharing layer and the cumulative metrics span all of them.
func (s *System) Engine(res *optimizer.Result, opts RunOptions) (*engine.Engine, error) {
	return s.engineFor(res, opts)
}

// engineFor maps the plan's aliases to bound services. With CacheCalls,
// the engine's Invoker shares one dedup/memo layer per underlying service
// value, so aliases over the same interface reuse each other's fetches.
func (s *System) engineFor(res *optimizer.Result, opts RunOptions) (*engine.Engine, error) {
	byAlias := map[string]service.Service{}
	for _, ref := range res.Query.Services {
		svc, ok := s.services[ref.Interface.Name]
		if !ok {
			return nil, fmt.Errorf("core: no service bound for interface %q (alias %s)",
				ref.Interface.Name, ref.Alias)
		}
		byAlias[ref.Alias] = svc
	}
	var delay func(time.Duration)
	if opts.LiveLatency {
		delay = time.Sleep
	}
	return engine.NewWithConfig(byAlias, engine.Config{
		Delay: delay, Share: opts.CacheCalls, Metrics: opts.Metrics,
	}), nil
}

// Explain renders a human-readable description of an optimization result:
// the winning topology, its annotations and its cost.
func (s *System) Explain(res *optimizer.Result) string {
	return fmt.Sprintf("topology: %s\ncost: %.6g (plans explored: %d, pruned: %d)\n%s",
		res.Topology, res.Cost, res.Explored, res.Pruned,
		res.Plan.Describe(res.Annotated))
}

// DOT renders the optimized plan in Graphviz syntax.
func (s *System) DOT(res *optimizer.Result) string {
	return res.Plan.DOT(res.Annotated)
}
