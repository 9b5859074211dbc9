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
	"errors"
	"fmt"
	"time"

	"seco/internal/cost"
	"seco/internal/engine"
	"seco/internal/mart"
	"seco/internal/obs"
	"seco/internal/optimizer"
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
		FixedInterfaces:  true,
		DisableMultiway:  opts.DisableMultiway,
	})
}

// RunOptions configures execution.
type RunOptions struct {
	// Inputs binds the query's INPUT variables.
	Inputs map[string]types.Value
	// Parallelism is the number of upstream combinations a pipe join
	// holds at once, the current one included (default 8). Under
	// LiveLatency it is the overlap window: each one not yet reached
	// prepays a single chunk. On the default virtual clock every call is
	// made on demand, and it only sets how far a pipe reads upstream for
	// its bound.
	Parallelism int
	// LiveLatency runs on the wall clock: every fetch sleeps the
	// service's published latency, so wall-clock measurements reflect the
	// cost model.
	LiveLatency bool
	// CacheCalls enables the engine's call-sharing layer for Run: service
	// chunks are memoized per input binding and concurrent fetches of the
	// same chunk are deduplicated in flight, cutting repeated pipe-join
	// wire calls (results are unchanged). Aliases bound to the same
	// interface share one layer. A Session always shares.
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
	// (see engine.RunOptions.Trace). Pass a fresh obs.NewTracer per Run;
	// a Session refuses it.
	Trace *obs.Tracer
	// Metrics, when non-nil, registers the engine's instruments (per-alias
	// call counters, latency/chunk-depth histograms, share-layer hits,
	// driver counters); Metrics.Text() dumps it.
	Metrics *obs.Registry
	// Fidelity enables the per-node estimate-vs-actual accounting and
	// fills Run.Fidelity with the q-error report (see engine.Options); a
	// Session refuses it.
	Fidelity bool
	// DriftThreshold overrides the fidelity report's one-sided drift
	// factor (0 = fidelity.DefaultThreshold).
	DriftThreshold float64
}

// Run executes an optimized plan and returns the ranked combinations.
func (s *System) Run(ctx context.Context, res *optimizer.Result, opts RunOptions) (*engine.Run, error) {
	e, err := s.Engine(res, opts.config(), nil)
	if err != nil {
		return nil, err
	}
	return e.Execute(ctx, res.Annotated, opts.options(res))
}

// Session opens a resumable execution ("more results") over an optimized
// plan. Its engine always shares calls, so a later batch reaches the wire
// only for chunks no earlier batch fetched. Budget and Degrade apply to
// each batch; Trace and Fidelity describe a single run, which a batch
// does not return, so a Session refuses them.
func (s *System) Session(res *optimizer.Result, opts RunOptions) (*engine.Session, error) {
	switch {
	case opts.Trace != nil:
		return nil, errors.New("core: a Session does not take RunOptions.Trace (a tracer records one run)")
	case opts.Fidelity:
		return nil, errors.New("core: a Session does not take RunOptions.Fidelity (a report describes one run)")
	}
	cfg := opts.config()
	cfg.Share = true
	e, err := s.Engine(res, cfg, nil)
	if err != nil {
		return nil, err
	}
	return engine.NewSession(e, res.Plan, res.Annotated.Fetches, opts.options(res)), nil
}

// config is the engine configuration a run under opts binds.
func (opts RunOptions) config() engine.Config {
	cfg := engine.Config{Share: opts.CacheCalls, Metrics: opts.Metrics}
	if opts.LiveLatency {
		cfg.Clock = engine.WallClock{}
	}
	return cfg
}

// options hands opts to the engine with the plan's ranking function and K.
func (opts RunOptions) options(res *optimizer.Result) engine.Options {
	return engine.Options{
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
	}
}

// Engine is the one alias binder: it maps the plan's aliases to the
// services bound to their interfaces and builds an engine over them with
// cfg. wrap, when non-nil, decorates each alias's service first (serve
// mounts chaos faults and resilience middleware there); without it,
// aliases over one interface share one service value, so one Share layer.
func (s *System) Engine(res *optimizer.Result, cfg engine.Config, wrap func(alias string, svc service.Service) service.Service) (*engine.Engine, error) {
	byAlias := map[string]service.Service{}
	for _, ref := range res.Query.Services {
		svc, ok := s.services[ref.Interface.Name]
		if !ok {
			return nil, fmt.Errorf("core: no service bound for interface %q (alias %s)",
				ref.Interface.Name, ref.Alias)
		}
		if wrap != nil {
			svc = wrap(ref.Alias, svc)
		}
		byAlias[ref.Alias] = svc
	}
	return engine.NewWithConfig(byAlias, cfg), nil
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
