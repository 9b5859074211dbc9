package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"seco/internal/fidelity"
	"seco/internal/plancheck"
)

// This file builds one run's operator graph from a Prepared's program:
// one Operator per program node, with fan-out nodes instantiated once and
// read through per-consumer tees. Only mutable state is created here —
// operator structs wired to the program's compiled parts, bound service
// inputs, arenas, counters, trace scopes. The graph also owns the
// run-wide bookkeeping the drivers read back: per-node emission counts,
// per-service fetch depths, the WaitGroup tracking every pipeline
// goroutine, and the close order of the operators.

// graph is the operator graph of one run.
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
	ops    []Operator
	shared []*sharedOp
	// held counts the pooled buffer handles and arena blocks the run
	// holds (see pooled and combArena); shutdown checks that every one
	// came back.
	held atomic.Int64
	// fid hands out the per-node candidate counters of the fidelity
	// accounting; nil (handing out nil counters) unless RunOptions.Fidelity.
	fid *fidelity.Recorder

	root Operator
}

// instantiate builds the run's operators by walking the program nodes in
// order, so every input exists before its consumer is wired.
func (p *Prepared) instantiate(ex *executor) (*graph, error) {
	g := &graph{
		ex:      ex,
		emitted: make([]atomic.Int64, len(p.nodes)),
		depth:   make([]atomic.Int64, len(p.nodes)),
		ops:     make([]Operator, len(p.nodes)),
		shared:  make([]*sharedOp, len(p.nodes)),
	}
	if ex.run.Fidelity {
		g.fid = fidelity.NewRecorder(len(p.nodes))
	}
	for i := range p.nodes {
		pn := &p.nodes[i]
		op, err := g.newOp(i, pn)
		if err != nil {
			return nil, err
		}
		counted := &countedOp{inner: op, n: &g.emitted[i], sc: ex.run.Trace.Scope(pn.id)}
		g.ops[i] = counted
		if pn.shared {
			g.shared[i] = &sharedOp{src: counted}
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
		return &teeOp{sh: sh}
	}
	return g.ops[i]
}

// newOp builds the bare operator of one program node.
func (g *graph) newOp(i int, pn *progNode) (Operator, error) {
	switch pn.kind {
	case plancheck.OpInput:
		return &inputOp{width: g.ex.layout.width()}, nil
	case plancheck.OpSelection:
		return &selectionOp{ex: g.ex, sels: pn.sels, up: g.reader(pn.inputs[0])}, nil
	case plancheck.OpScan, plancheck.OpPipe:
		return g.newServiceOp(i, pn)
	case plancheck.OpJoin, plancheck.OpMultiJoin:
		return g.newMultiJoinOp(pn)
	}
	return nil, fmt.Errorf("engine: node %s has no operator kind %q", pn.id, pn.kind)
}

func (g *graph) newServiceOp(i int, pn *progNode) (Operator, error) {
	sp := pn.svc
	counter := g.ex.scope.Counter(sp.n.Alias)
	fixed, err := sp.bind(g.ex.run.Inputs)
	if err != nil {
		return nil, err
	}
	up := g.reader(pn.inputs[0])
	// The service operator carries its trace scope and attaches it to the
	// context of every Invoke/Fetch, so the per-call spans the Counter
	// emits — and any middleware events beneath it — land in this node's
	// lane. Scope is nil (and WithScope a no-op) when the run is untraced.
	sc := g.ex.run.Trace.Scope(pn.id)
	return &serviceOp{
		svcProg: sp, ex: g.ex, g: g, counter: counter, fixed: fixed,
		par: g.ex.opts.Parallelism, up: up, depth: &g.depth[i], sc: sc,
		cand: g.fid.Counter(pn.id), arena: g.newArena(),
	}, nil
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
