package engine

import (
	"fmt"
	"math"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seco/internal/fidelity"
	"seco/internal/plancheck"
	"seco/internal/types"
)

// This file holds a Prepared's operator graphs: one Operator per program
// node, with fan-out nodes instantiated once and read through
// per-consumer tees. A graph is built when a run finds no idle one and is
// then reused run after run (Prepared.Run). bind hands it one run's
// options — the INPUT values, refilled into the graph's own input
// buffers; the budget probe and the counting scope's Counters; the trace
// scopes and the fidelity counters — and, after the run's teardown,
// reset returns every operator to the state newGraph built it in and
// drops every reference to the run. The graph also owns the run-wide
// bookkeeping the drivers read back: per-node emission counts, per-service
// fetch depths, the top-K, the WaitGroup tracking every pipeline
// goroutine, and the close order of the operators.

// graph is the operator graph of one run at a time.
type graph struct {
	ex *executor
	// wg tracks every goroutine the pipeline spawns (join-branch
	// prefetchers and pipe look-ahead fetches); the drivers wait for it
	// after cancelling, so counters are quiescent before the Run is
	// assembled and before the operators are closed.
	wg sync.WaitGroup
	// emitted and depth are indexed like the program's nodes: combinations
	// each node emitted, and request-responses per service node — the
	// fetch depth Degradation.FetchDepth reports.
	emitted []atomic.Int64
	depth   []atomic.Int64
	// ops holds each node's operator in program order (inputs before
	// consumers); shutdown closes them in reverse, output side first.
	ops    []*countedOp
	shared []*sharedOp
	tees   []*teeOp
	// held counts the pooled buffer handles and arena blocks the run
	// holds (see pooled and combArena); shutdown checks that every one
	// came back.
	held atomic.Int64
	// fid hands out the per-node candidate counters of the fidelity
	// accounting; nil (handing out nil counters) unless RunOptions.Fidelity.
	fid *fidelity.Recorder
	// best is the drivers' top-K, its buffer kept from run to run.
	best topK

	root Operator
}

// runOp is a bare operator of the graph: reset returns its per-run state
// to how the graph built it, after Close has released its buffers.
type runOp interface {
	Operator
	reset()
}

// newGraph builds an operator graph of the program, with its own executor
// and counting scope, by walking the program nodes in order, so every
// input exists before its consumer is wired. It binds no run.
func (p *Prepared) newGraph() (*graph, error) {
	ex := &executor{Prepared: p, scope: p.engine.invoker.NewRun(), floor: math.Inf(-1)}
	ex.expiredFn, ex.remainingFn = ex.expired, ex.remaining
	g := &graph{
		ex:      ex,
		emitted: make([]atomic.Int64, len(p.nodes)),
		depth:   make([]atomic.Int64, len(p.nodes)),
		ops:     make([]*countedOp, len(p.nodes)),
		shared:  make([]*sharedOp, len(p.nodes)),
		best:    newTopK(p.opts.TargetK, p.outHint),
	}
	ex.best = &g.best
	for i := range p.nodes {
		pn := &p.nodes[i]
		op, err := g.newOp(i, pn)
		if err != nil {
			return nil, err
		}
		g.ops[i] = &countedOp{inner: op, n: &g.emitted[i]}
		if pn.shared {
			g.shared[i] = &sharedOp{src: g.ops[i]}
		}
	}
	g.root = g.reader(p.root)
	// Only the root's output goes straight into the driver's top-K.
	if c, ok := g.root.(*countedOp); ok {
		if s, ok := c.inner.(*serviceOp); ok {
			s.emitted = c.n
		}
	}
	return g, nil
}

// reader returns a consumer's handle on node i's output: the operator
// itself, or a fresh tee when the node fans out — so the node is
// evaluated once and its combinations (with their component tuple
// identities) are shared.
func (g *graph) reader(i int) Operator {
	if sh := g.shared[i]; sh != nil {
		t := &teeOp{sh: sh}
		g.tees = append(g.tees, t)
		return t
	}
	return g.ops[i]
}

// newOp builds the bare operator of one program node.
func (g *graph) newOp(i int, pn *progNode) (runOp, error) {
	switch pn.kind {
	case plancheck.OpInput:
		return &inputOp{seed: comb{comps: make([]*types.Tuple, g.ex.layout.width())}}, nil
	case plancheck.OpSelection:
		return &selectionOp{ex: g.ex, sels: pn.sels, up: g.reader(pn.inputs[0])}, nil
	case plancheck.OpScan, plancheck.OpPipe:
		return g.newServiceOp(i, pn), nil
	case plancheck.OpJoin, plancheck.OpMultiJoin:
		return g.newMultiJoinOp(pn)
	}
	return nil, fmt.Errorf("engine: node %s has no operator kind %q", pn.id, pn.kind)
}

func (g *graph) newServiceOp(i int, pn *progNode) *serviceOp {
	sp := pn.svc
	// A node with INPUT variables gets its own copy of the input template
	// for bind to fill; one without shares the template — services only
	// read their input.
	fixed := sp.in
	if len(sp.inputs) > 0 {
		fixed = sp.in.Clone()
	}
	return &serviceOp{
		svcProg: sp, ex: g.ex, g: g, counter: g.ex.scope.Counter(sp.n.Alias), fixed: fixed,
		par: g.ex.opts.Parallelism, up: g.reader(pn.inputs[0]), depth: &g.depth[i],
		labels: pprof.Labels("seco.operator", pn.id), arena: g.newArena(),
	}
}

// bind readies the graph for one run under opts, started at start: the
// budget probe and the counting scope, the INPUT values of every service
// node, each node's trace scope and — when fidelity is scored — its
// candidate counter. It fails when a service node needs an INPUT variable
// opts leaves unbound.
func (g *graph) bind(opts RunOptions, start time.Time) error {
	ex := g.ex
	ex.run = opts
	// Bind the run's fixed call state into its Counters, the choke point
	// every Invoke and Fetch passes: the budget probe refuses calls once
	// it reports expiry — on this engine's clock, so virtual runs expire
	// in simulated time — and an untraced run skips the scope lookup.
	remaining := ex.bindBudget(start)
	ex.scope.Bind(ex.budget, remaining, opts.Trace != nil)
	if opts.Fidelity {
		g.fid = fidelity.NewRecorder(len(g.ops))
	}
	for i, c := range g.ops {
		id := ex.nodes[i].id
		// The service operator carries its node's trace scope too and
		// attaches it to the context of every Invoke/Fetch, so the
		// per-call spans the Counter emits — and any middleware events
		// beneath it — land in this node's lane. Scope is nil (and
		// WithScope a no-op) when the run is untraced.
		c.sc = opts.Trace.Scope(id)
		switch op := c.inner.(type) {
		case *serviceOp:
			op.sc, op.cand = c.sc, g.fid.Counter(id)
			if err := op.bind(op.fixed, opts.Inputs); err != nil {
				return err
			}
		case *multiJoinOp:
			op.cand = g.fid.Counter(id)
		}
	}
	return nil
}

// shutdown closes every operator, output side first. It must run after
// the drivers' cancel + wg.Wait, except that the operators' own Close
// implementations drain any goroutines still owning their inputs. Under
// test, a pooled buffer the closed graph still holds is a leak and fails
// the run.
func (g *graph) shutdown() {
	for i := len(g.ops) - 1; i >= 0; i-- {
		g.ops[i].Close()
	}
	if n := g.held.Load(); n != 0 && testing.Testing() {
		panic(fmt.Sprintf("engine: run closed holding %d pooled buffers", n))
	}
}

// reset returns a shut-down graph to the state newGraph built it in, so
// the next run can bind it: cursors, buffers, counters and the top-K go
// back to empty, and nothing of the run — its options, inputs, tracer,
// context or results — stays referenced. Nodes reset in program order,
// because a join re-reads its inputs' initial bounds.
func (g *graph) reset() {
	ex := g.ex
	ex.run, ex.floor, ex.halted = RunOptions{}, math.Inf(-1), false
	for _, c := range ex.scope.Counters() {
		c.Reset()
	}
	g.fid = nil
	g.best.reset()
	for _, t := range g.tees {
		t.pos = 0
	}
	for i, c := range g.ops {
		g.emitted[i].Store(0)
		g.depth[i].Store(0)
		c.reset()
		if sh := g.shared[i]; sh != nil {
			sh.reset()
		}
	}
}
