// Package engine executes fully instantiated query plans against live
// services through a unified pull-based operator runtime. A plan compiles
// into a graph of operators (Open/Next/Close over ranked combination
// chunks): service scans, pipe joins, parallel and multi-way joins,
// selections, and fan-out tees. Two thin driver policies execute the same
// graph: the default K-bounded pull maintains the K-th best score pulled
// so far and — using the score bounds each operator publishes, derived
// from the services' Scoring curves — halts (and stops issuing
// request-responses) as soon as the top-K set is guaranteed;
// Options.Materialize selects the eager-drain policy, which evaluates
// everything the fetch budgets reach before ranking and truncating — the
// measurement baseline.
//
// Execution has two steps. Engine.Prepare does, once, everything that
// depends only on the plan and the run-invariant options — plancheck
// verification, the alias layout, every compiled predicate, the program
// of per-node constants — and returns an immutable Prepared;
// Prepared.Run builds one run's operators from that program and drives
// them. Engine.Execute is Prepare followed by one Run; a caller that runs
// a plan many times keeps the Prepared.
//
// Beneath the operators, every service call goes through a shared
// service.Invoker: per-run Counters give each execution isolated call
// statistics, budget probing and latency charging, so a single Engine
// safely executes any number of concurrent queries; an optional
// cross-query sharing layer deduplicates in-flight calls and memoizes
// fetched chunks between them.
package engine

import (
	"context"
	"time"

	"seco/internal/fidelity"
	"seco/internal/obs"
	"seco/internal/plan"
	"seco/internal/service"
	"seco/internal/types"
)

// PrepareOptions are the run-invariant execution options: everything
// Engine.Prepare needs to verify a plan and compile it into a program.
// A Prepared carries them for its whole life; what varies from one run
// to the next is in RunOptions, and no field is declared in both.
type PrepareOptions struct {
	// Weights is the ranking function (alias → weight); combinations are
	// scored incrementally as components accumulate.
	Weights map[string]float64
	// TargetK truncates the ranked output to the best K combinations
	// (0 = return everything the fetch factors produced). The pull driver
	// additionally uses it to stop early once the top-K set is guaranteed
	// by the score bounds.
	TargetK int
	// Parallelism is the number of upstream combinations a pipe join
	// holds at once, the current one included (default 8). Under a clock
	// that waits it is the overlap window: each one not yet reached
	// prepays a single chunk on a goroutine of its own, and 1 reads purely
	// on demand. Under the default VirtualClock every call is made on
	// demand, and it only sets how far a pipe reads upstream for its bound.
	Parallelism int
	// Materialize selects the eager-drain driver policy (materialize,
	// rank, then truncate) instead of the default K-bounded pull —
	// the baseline for measurements and equivalence tests.
	Materialize bool
	// DefaultChunkSize overrides the re-chunking granularity used for join
	// inputs that do not originate from a chunked service node
	// (default DefaultRechunkSize).
	DefaultChunkSize int
	// Degrade turns permanent service failures, open circuits, exhausted
	// retries and budget expiry into partial results: the pull driver
	// stops pulling, returns what it has, and fills Run.Degraded with the
	// failure report and the provably-correct prefix length. The drain
	// driver does not degrade (it has no meaningful partial state to
	// return); plancheck warns on that combination.
	Degrade bool
	// SkipValidate disables the plancheck verification Prepare performs.
	// By default Prepare refuses plans with Error-severity diagnostics
	// (cycles, uncovered bindings, illegal strategies, stale annotations,
	// negative weights under a top-K pull run, mis-compiled operator
	// graphs); set SkipValidate for callers that have already verified
	// the plan.
	SkipValidate bool
}

// RunOptions are the per-run execution options: what one Prepared.Run
// may choose differently from the next.
type RunOptions struct {
	// Inputs binds the query's INPUT variables.
	Inputs map[string]types.Value
	// Budget bounds the execution time on the engine's Clock (0 = no
	// budget): wall time under WallClock, simulated time under
	// VirtualClock. The deadline is propagated through the context into
	// every Invoke and Fetch, so in-flight service calls stop promptly
	// once the budget is spent. Without Degrade, expiry surfaces as
	// ErrBudget; with Degrade, the pull driver returns the combinations
	// produced so far.
	Budget time.Duration
	// BudgetReason classifies a budget expiry in Run.Degraded (default
	// DegradeBudget). The serving layer maps its admission decisions here:
	// a budget derived from the request deadline reports DegradeDeadline,
	// a budget reduced by load shedding reports DegradeShed — so the
	// degraded-run metrics distinguish "client asked for this bound" from
	// "the server was protecting itself".
	BudgetReason DegradeReason
	// Fidelity enables per-node estimate-vs-actual accounting: every
	// operator records its actuals (tuples in/out, fetches, candidate
	// combinations examined) and the drivers assemble a fidelity.Report
	// on Run.Fidelity, publish seco.fidelity.* metrics, and — when the run
	// is traced — emit one "fidelity" event per node lane. Counters come
	// from a per-run slab sized from the program, so the enabled path
	// stays cheap; disabled, the operators carry nil counters and the hot
	// path allocates nothing (the obs.Tracer pattern).
	Fidelity bool
	// DriftThreshold is the one-sided drift factor of the fidelity
	// report: a node drifts when its actual exceeds its estimate by more
	// than this factor (0 = fidelity.DefaultThreshold). Overestimates
	// never drift — the pull driver's early halt legitimately undershoots
	// the annotation.
	DriftThreshold float64
	// Trace, when non-nil, records per-operator spans for this run:
	// operator lifecycles, every service invoke/fetch, retry and breaker
	// events, cache hits, injected faults, and degradations. The engine
	// binds the tracer to its Clock at the start of the run; under a
	// VirtualClock the tracer stamps spans deterministically (lane-local
	// charged-time cursors), so two identical virtual runs produce
	// byte-identical traces. A Tracer records one run — pass a fresh one
	// per Run.
	Trace *obs.Tracer
}

// Options is the argument of Engine.Execute: the PrepareOptions and the
// RunOptions of a one-shot execution in one flat literal. Each field is
// documented on the half it belongs to.
type Options struct {
	Weights          map[string]float64 // PrepareOptions.Weights
	TargetK          int                // PrepareOptions.TargetK
	Parallelism      int                // PrepareOptions.Parallelism
	Materialize      bool               // PrepareOptions.Materialize
	DefaultChunkSize int                // PrepareOptions.DefaultChunkSize
	Degrade          bool               // PrepareOptions.Degrade
	SkipValidate     bool               // PrepareOptions.SkipValidate

	Inputs         map[string]types.Value // RunOptions.Inputs
	Budget         time.Duration          // RunOptions.Budget
	BudgetReason   DegradeReason          // RunOptions.BudgetReason
	Fidelity       bool                   // RunOptions.Fidelity
	DriftThreshold float64                // RunOptions.DriftThreshold
	Trace          *obs.Tracer            // RunOptions.Trace
}

// split separates the options into their two halves.
func (o Options) split() (PrepareOptions, RunOptions) {
	return PrepareOptions{
			Weights: o.Weights, TargetK: o.TargetK, Parallelism: o.Parallelism,
			Materialize: o.Materialize, DefaultChunkSize: o.DefaultChunkSize,
			Degrade: o.Degrade, SkipValidate: o.SkipValidate,
		}, RunOptions{
			Inputs: o.Inputs, Budget: o.Budget, BudgetReason: o.BudgetReason,
			Fidelity: o.Fidelity, DriftThreshold: o.DriftThreshold, Trace: o.Trace,
		}
}

// Run is the outcome of one plan execution.
type Run struct {
	// Combinations are the result tuples in decreasing ranking order.
	Combinations []*types.Combination
	// Calls counts request-responses per alias.
	Calls map[string]int64
	// Invocations counts service invocations per alias (each invocation
	// spans one or more request-responses).
	Invocations map[string]int64
	// Produced counts the combinations each plan node emitted — the
	// measured counterpart of the annotation engine's tout estimates.
	// Under the pull driver this is the number of combinations the node
	// actually emitted before execution stopped.
	Produced map[string]int
	// CallsSaved is the number of request-responses the execution avoided
	// relative to the annotated plan's expected total (the cost a full
	// materializing drain is planned for); 0 when nothing was saved.
	CallsSaved float64
	// Halted reports that the pull driver stopped early because the top-K
	// set was guaranteed by the score bounds.
	Halted bool
	// Elapsed is the execution time as measured by the engine's Clock:
	// wall-clock time under WallClock, simulated time (the serial sum of
	// charged call latencies) under VirtualClock.
	Elapsed time.Duration
	// Resilience aggregates, per alias, the counters of the service's
	// resilience middleware chain (retries, injected faults, breaker
	// trips and rejections); aliases with no recorded events are absent.
	Resilience map[string]service.ResilienceStats
	// Fidelity is the per-node estimate-vs-actual report of this run,
	// nil unless Options.Fidelity was set.
	Fidelity *fidelity.Report
	// Degraded is non-nil when the run returned a partial result under
	// Options.Degrade: it names the failure, the per-node fetch depth
	// reached, and how much of the returned prefix is provably correct.
	Degraded *Degradation
}

// TotalCalls sums the per-alias request-responses.
func (r *Run) TotalCalls() int64 {
	var sum int64
	for _, c := range r.Calls {
		sum += c
	}
	return sum
}

// Engine executes plans against a set of services keyed by query alias.
// All service calls funnel through one shared Invoker, and every Execute
// opens its own counting scope there, so a single Engine instance is safe
// for concurrent executions.
type Engine struct {
	invoker *service.Invoker
	clock   Clock
	// virtual records that clock is a VirtualClock. Virtual time is the
	// serial sum of charged latencies, so overlapping calls buys nothing:
	// under it every reader fetches on demand, on its consumer's goroutine,
	// instead of prefetching on goroutines of its own.
	virtual bool
	metrics *obs.Registry
	inst    instruments
}

// Config configures an Engine beyond its bound services.
type Config struct {
	// Clock drives latency charging and elapsed-time reporting: every
	// fetch Sleeps the service's published latency on it. Nil selects a
	// VirtualClock (simulated time); WallClock paces fetches live.
	Clock Clock
	// Share enables the Invoker's cross-query call-sharing layer:
	// in-flight calls for the same service, input binding and chunk are
	// deduplicated across concurrent runs, and fetched chunks are
	// memoized engine-wide. Results are unchanged; only wire traffic and
	// call counts below the per-run Counters shrink.
	Share bool
	// Metrics, when non-nil, receives the engine's instruments: per-alias
	// call counters and latency/chunk-depth histograms from the Invoker,
	// share-layer hit counters, and per-run driver counters. The registry
	// is engine-wide (cumulative across runs); Engine.Metrics().Text()
	// dumps it. Nil keeps the hot path unmetered.
	Metrics *obs.Registry
	// Hedge, when non-nil, mounts the Invoker's hedging layer on every
	// lane (above Share): hedgeable failures get one immediate second
	// attempt. service.HedgePolicy has no fields.
	Hedge *service.HedgePolicy
}

// New builds an engine over the given services on clk. A nil clock
// selects a VirtualClock: fetches complete instantly while their
// published latency is charged to simulated time, so Run.Elapsed reports
// the simulated duration of the run; WallClock{} paces fetches live.
// Callers that need the cross-query sharing layer, metrics or hedging use
// NewWithConfig.
func New(services map[string]service.Service, clk Clock) *Engine {
	return NewWithConfig(services, Config{Clock: clk})
}

// NewWithConfig builds an engine with explicit clock, call-sharing,
// metrics and hedging configuration.
func NewWithConfig(services map[string]service.Service, cfg Config) *Engine {
	clk := cfg.Clock
	if clk == nil {
		clk = NewVirtualClock()
	}
	inv := service.NewInvoker(services, service.InvokerOptions{
		Delay: clk.Sleep, Share: cfg.Share, Metrics: cfg.Metrics, Hedge: cfg.Hedge != nil,
	})
	_, virtual := clk.(*VirtualClock)
	return &Engine{
		invoker: inv,
		clock:   clk,
		virtual: virtual,
		metrics: cfg.Metrics,
		inst:    newInstruments(cfg.Metrics),
	}
}

// instruments are the per-run driver instruments, resolved by name once
// per engine. All are nil — and their methods no-ops — when the engine
// was built without Config.Metrics.
type instruments struct {
	runsPull, runsDrain, halted *obs.Counter
	combinations, elapsedMS     *obs.Histogram
}

func newInstruments(m *obs.Registry) instruments {
	return instruments{
		runsPull:     m.Counter("seco.engine.runs.pull"),
		runsDrain:    m.Counter("seco.engine.runs.drain"),
		halted:       m.Counter("seco.engine.halted"),
		combinations: m.Histogram("seco.engine.combinations", obs.DepthBuckets),
		elapsedMS:    m.Histogram("seco.engine.elapsed_ms", obs.LatencyBucketsMS),
	}
}

// Clock returns the clock driving this engine's latency charging and
// elapsed-time reporting.
func (e *Engine) Clock() Clock { return e.clock }

// Invoker exposes the engine's shared service-call choke point (per-alias
// lanes, cross-query sharing statistics).
func (e *Engine) Invoker() *service.Invoker { return e.invoker }

// Metrics exposes the engine's metrics registry (nil when the engine was
// built without Config.Metrics).
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Execute runs the annotated plan and returns the ranked combinations:
// Prepare followed by one Run. Callers that run one plan many times keep
// the Prepared and pay for verification and compilation once. Execute is
// safe for concurrent use on one Engine; every call gets its own counting
// scope from the Invoker.
func (e *Engine) Execute(ctx context.Context, a *plan.Annotated, opts Options) (*Run, error) {
	prepare, run := opts.split()
	p, err := e.Prepare(a, prepare)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, run)
}
