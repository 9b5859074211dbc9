package engine

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"time"

	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/service"
	"seco/internal/types"
)

// Prepared is a verified, compiled plan bound to an engine: the result of
// everything that depends only on the plan and the PrepareOptions. It is
// immutable, so any number of goroutines may Run it at once; each Run
// builds only the mutable state of one execution.
type Prepared struct {
	engine *Engine
	ann    *plan.Annotated
	opts   PrepareOptions
	// layout is the alias → slot mapping every comb of this program is
	// indexed by.
	layout *aliasLayout
	// nodes is the program, inputs before consumers; root indexes the
	// node the drivers pull (the output node's single predecessor).
	nodes []progNode
	root  int
	outID string
	// outHint pre-sizes the drivers' pull buffer; earlyStop enables the
	// top-K halt; estCalls is the annotated plan's expected
	// request-responses, the baseline of Run.CallsSaved.
	outHint   int
	earlyStop bool
	estCalls  float64
}

// Prepare verifies the annotated plan and compiles it into a program.
// Unless PrepareOptions.SkipValidate is set, the plan is verified with
// plancheck — and the compiled program checked against it — and refused
// when it carries Error-severity diagnostics: a hand-built or JSON-loaded
// plan violating the engine's invariants would otherwise silently return
// wrong top-K results. No plan reaches Run any other way. The Prepared
// keeps referring to the plan, which must not be modified afterwards.
func (e *Engine) Prepare(a *plan.Annotated, opts PrepareOptions) (*Prepared, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = 8
	}
	if !opts.SkipValidate {
		rep := plancheck.CheckAnnotated(a)
		rep.Merge(plancheck.CheckExec(a.Plan, plancheck.Exec{
			Weights: opts.Weights, TargetK: opts.TargetK, Streaming: !opts.Materialize,
			Degrade: opts.Degrade,
		}))
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("engine: refusing invalid plan: %w", err)
		}
	}
	order, err := a.Plan.TopoSort()
	if err != nil {
		return nil, err
	}
	var outID string
	for _, id := range order {
		if n, _ := a.Plan.Node(id); n.Kind == plan.KindOutput {
			outID = id
		}
	}
	if outID == "" {
		return nil, fmt.Errorf("engine: plan has no output node")
	}
	preds := a.Plan.Predecessors(outID)
	if len(preds) != 1 {
		return nil, fmt.Errorf("engine: output node has %d predecessors", len(preds))
	}
	c := &compiler{
		engine: e, ann: a, opts: opts,
		layout: newAliasLayout(a.Plan, opts.Weights),
		nodes:  make([]progNode, 0, len(order)),
		index:  make(map[string]int, len(order)),
	}
	root, err := c.node(preds[0])
	if err != nil {
		return nil, err
	}
	p := &Prepared{
		engine: e, ann: a, opts: opts, layout: c.layout,
		nodes: c.nodes, root: root, outID: outID,
		outHint:   outHint(a.Ann[preds[0]].TOut),
		earlyStop: opts.TargetK > 0 && nonNegative(opts.Weights),
		estCalls:  a.TotalCalls(),
	}
	if !opts.SkipValidate {
		if err := p.verify(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// verify checks the program against its plan. The description comes from
// the same nodes Run instantiates, so what passes here is what executes.
func (p *Prepared) verify() error {
	if err := plancheck.CheckOpGraph(p.ann.Plan, p.describe()).Err(); err != nil {
		return fmt.Errorf("engine: refusing mis-compiled operator graph: %w", err)
	}
	return nil
}

// Run executes the prepared plan once under the driver policy it was
// prepared for (see PrepareOptions.Materialize) and returns the ranked
// combinations. Run is safe for concurrent use; every call gets its own
// counting scope from the Invoker.
func (p *Prepared) Run(ctx context.Context, opts RunOptions) (*Run, error) {
	e := p.engine
	// Bind the tracer to this engine's clock before any span can be
	// recorded. A VirtualClock selects the deterministic stamping mode:
	// spans carry lane-local charged-time cursors instead of raw clock
	// readings, so goroutine scheduling cannot perturb the trace.
	if opts.Trace != nil {
		opts.Trace.Bind(e.clock, e.virtual)
	}
	start := e.clock.Now()
	ex := &executor{Prepared: p, run: opts, scope: e.invoker.NewRun(), floor: math.Inf(-1)}
	// Bind the run's fixed call state into its Counters, the choke point
	// every Invoke and Fetch passes: the budget probe refuses calls once
	// it reports expiry — on this engine's clock, so virtual runs expire
	// in simulated time — and an untraced run skips the scope lookup.
	ex.budget = ex.budgetCheck(start)
	var remaining func() time.Duration
	if ex.budget != nil {
		// The call policy's backoff, below the Counter, reads the probe
		// from the context.
		ctx = service.WithBudget(ctx, ex.budget)
		// Under a wall clock the budget also yields per-call deadlines:
		// every Invoke/Fetch gets a context.WithTimeout bounded by what is
		// left, so a stalled wire call cannot outlive the run's deadline.
		// Virtual runs skip this — their time only advances through charged
		// latency, so the deterministic budget probe is the sole authority.
		if _, wall := e.clock.(WallClock); wall {
			deadline := start.Add(opts.Budget)
			clk := e.clock
			remaining = func() time.Duration { return deadline.Sub(clk.Now()) }
		}
	}
	ex.scope.Bind(ex.budget, remaining, opts.Trace != nil)
	g, err := p.instantiate(ex)
	if err != nil {
		return nil, err
	}
	// Label the run's goroutines for profiling: children (join-branch
	// prefetchers, pipe look-ahead fetches) inherit the label, so a pprof
	// profile partitions CPU/heap by query root.
	var run *Run
	var runErr error
	pprof.Do(ctx, pprof.Labels("seco.query", p.nodes[p.root].id), func(ctx context.Context) {
		if p.opts.Materialize {
			run, runErr = ex.runDrain(ctx, g, start)
		} else {
			run, runErr = ex.runPull(ctx, g, start)
		}
	})
	return run, runErr
}

// executor is the per-run context shared by one run's operators: the
// Prepared it executes (program, layout, engine, prepare-time options),
// the run's own options, and its private counting scope from the Invoker.
type executor struct {
	*Prepared
	run   RunOptions
	scope *service.RunScope
	// The pull driver's stopping rule, shared with the root reader in plain
	// fields (its Next runs on the driver goroutine): floor is the K-th best
	// score once the top-K is full and the run may stop early, -Inf
	// otherwise and under drain; halted is set by either stop path.
	floor float64
	best  *topK
	// budget is the run's budget-expiry probe, nil without a budget.
	budget func() error
	halted bool
}

// newRun assembles the common Run fields from the run's counting scope.
func (ex *executor) newRun(g *graph, ranked []*types.Combination, pulled int, start time.Time, halted bool) *Run {
	run := &Run{
		Combinations: ranked,
		Calls:        map[string]int64{},
		Invocations:  map[string]int64{},
		Produced:     make(map[string]int, len(ex.nodes)+1),
		Resilience:   map[string]service.ResilienceStats{},
		Halted:       halted,
		Elapsed:      ex.engine.clock.Now().Sub(start),
	}
	for alias, c := range ex.scope.Counters() {
		run.Calls[alias] = c.Fetches()
		run.Invocations[alias] = c.Invocations()
		if rs := service.CollectResilience(c); !rs.Zero() {
			run.Resilience[alias] = rs
		}
	}
	for i := range ex.nodes {
		run.Produced[ex.nodes[i].id] = int(g.emitted[i].Load())
	}
	run.Produced[ex.outID] = pulled
	if calls := float64(run.TotalCalls()); ex.estCalls > calls {
		run.CallsSaved = ex.estCalls - calls
	}
	inst := &ex.engine.inst
	if ex.opts.Materialize {
		inst.runsDrain.Add(1)
	} else {
		inst.runsPull.Add(1)
	}
	if halted {
		inst.halted.Add(1)
	}
	inst.combinations.Observe(float64(len(ranked)))
	inst.elapsedMS.Observe(float64(run.Elapsed) / float64(time.Millisecond))
	return run
}

// outHint pre-sizes the drivers' pull buffer from the annotation's
// expected output cardinality of the root node, clamped to a sane range.
func outHint(tout float64) int {
	hint := int(tout) + 1
	if hint < 16 {
		hint = 16
	}
	if hint > 4096 {
		hint = 4096
	}
	return hint
}
