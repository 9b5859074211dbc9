package engine

import (
	"fmt"
	"slices"
	"strings"

	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/types"
)

// This file compiles a plan.Plan into the program a Prepared holds: one
// progNode per plan node (input, selection, service scan, pipe join,
// parallel or multi-way join) carrying everything about the node that
// is the same in every run — compiled predicates, layout slots, ranking
// weight, fetch budget, chunk sizes, the constant part of a service's
// input. Nothing here is mutable after Prepare returns; graph.go builds
// the operator graphs runs reuse by walking the same nodes, and describe
// reports them to plancheck, so the verified graph is the executed graph.

// progNode is one compiled plan node.
type progNode struct {
	id string
	// kind is the plancheck operator kind the node instantiates to.
	kind string
	n    *plan.Node
	// inputs index the nodes feeding this one, in wiring order.
	inputs []int
	// shared marks a fan-out node: instantiated once, read through one
	// tee per consumer.
	shared bool

	sels  []compiledSel // OpSelection
	svc   *svcProg      // OpScan, OpPipe
	multi *multiProg    // OpJoin, OpMultiJoin: the one join operator
}

// svcProg is the run-invariant part of a service scan or pipe join.
type svcProg struct {
	n     *plan.Node
	preds []svcPred
	slot  int
	// budget is the fetch budget per invocation (1 for unchunked
	// services); w the alias's ranking weight.
	budget int
	w      float64
	// hint pre-sizes the fetched-tuple prefix buffer.
	hint int
	// in is the node's input template: one binding per path, sorted by
	// path, with the constants set. inputs lists the positions still to
	// bind from RunOptions.Inputs, pipes those bound from each upstream
	// combination (non-empty exactly for a pipe join).
	in     service.Input
	inputs []inputBind
	pipes  []pipeBind
}

// inputBind is one service input position fed by an INPUT variable.
type inputBind struct {
	pos   int
	input string
}

// pipeBind is one service input position piped from an upstream
// component.
type pipeBind struct {
	pos int
	// slot is the upstream alias's layout slot, -1 when the plan has no
	// such alias (the pipe then finds no value, as an absent component).
	slot int
	from query.PathRef
}

// bind fills the run's INPUT values into fixed, the operator's own copy
// of the node's input template.
func (sp *svcProg) bind(fixed service.Input, inputs map[string]types.Value) error {
	for _, b := range sp.inputs {
		v, ok := inputs[b.input]
		if !ok {
			return fmt.Errorf("engine: unbound input variable %s (service %s)",
				b.input, sp.n.Alias)
		}
		fixed[b.pos].Value = v
	}
	return nil
}

// pipeInput assembles the input of one piped invocation into dst's
// storage: the fixed bindings with the values the upstream combination
// supplies filled in. It allocates only when dst is too small.
func (sp *svcProg) pipeInput(dst, fixed service.Input, src *comb) (service.Input, error) {
	in := append(dst[:0], fixed...)
	for _, b := range sp.pipes {
		v := types.Null
		if b.slot >= 0 {
			if t := src.comps[b.slot]; t != nil {
				v = t.Get(b.from.Path)
			}
		}
		if v.IsNull() {
			return in, fmt.Errorf("engine: pipe into %s: upstream %s has no value",
				sp.n.Alias, b.from)
		}
		in[b.pos].Value = v
	}
	return in, nil
}

// multiProg is the run-invariant part of a join of any fan-in: the
// re-chunking granularity of each input, the edge table with both
// endpoint branches resolved, and the edges touching each branch.
type multiProg struct {
	sizes    []int
	edges    []multiEdge
	incident [][]int
	// ones are the unit weights the corner bound composes with.
	ones []float64
	// indexed marks an edge table with a hashable edge: each run copies
	// it to fill its own posting lists.
	indexed bool
	// explore marks a binary join with a predicate that is not an atomic
	// equality (or with none): the explorer schedules it by the node's
	// strategy instead of the round-robin delta join.
	explore bool
}

// compiler builds a Prepared's node list: inputs before consumers, every
// plan node once.
type compiler struct {
	engine *Engine
	ann    *plan.Annotated
	opts   PrepareOptions
	layout *aliasLayout
	nodes  []progNode
	index  map[string]int
}

// node compiles the plan node (and, first, everything upstream of it) and
// returns its index.
func (c *compiler) node(id string) (int, error) {
	if i, ok := c.index[id]; ok {
		return i, nil
	}
	n, ok := c.ann.Plan.Node(id)
	if !ok {
		return 0, fmt.Errorf("engine: unknown node %q", id)
	}
	pn := progNode{id: id, n: n, shared: len(c.ann.Plan.Successors(id)) > 1}
	preds := c.ann.Plan.Predecessors(id)
	var err error
	switch n.Kind {
	case plan.KindInput:
		pn.kind = plancheck.OpInput
	case plan.KindSelection:
		pn.kind = plancheck.OpSelection
		if pn.inputs, err = c.inputs(preds[:1]); err == nil {
			pn.sels, err = compileSelections(n.Selections, c.layout)
		}
	case plan.KindService:
		pn.kind = plancheck.OpScan
		if n.PipedFrom() {
			pn.kind = plancheck.OpPipe
		}
		if pn.inputs, err = c.inputs(preds[:1]); err == nil {
			pn.svc, err = c.service(id, n)
		}
	case plan.KindJoin:
		pn.kind = plancheck.OpJoin
		if len(preds) != 2 {
			return 0, fmt.Errorf("engine: join %s has %d predecessors", id, len(preds))
		}
		if pn.inputs, err = c.inputs(preds); err == nil {
			pn.multi, err = c.join(n, preds)
		}
	case plan.KindMultiJoin:
		pn.kind = plancheck.OpMultiJoin
		if len(preds) < 2 {
			return 0, fmt.Errorf("engine: multijoin %s has %d predecessors", id, len(preds))
		}
		if pn.inputs, err = c.inputs(preds); err == nil {
			pn.multi, err = c.join(n, preds)
		}
	default:
		err = fmt.Errorf("engine: unsupported node kind %v", n.Kind)
	}
	if err != nil {
		return 0, err
	}
	c.nodes = append(c.nodes, pn)
	c.index[id] = len(c.nodes) - 1
	return len(c.nodes) - 1, nil
}

func (c *compiler) inputs(ids []string) ([]int, error) {
	out := make([]int, len(ids))
	for i, id := range ids {
		j, err := c.node(id)
		if err != nil {
			return nil, err
		}
		out[i] = j
	}
	return out, nil
}

func (c *compiler) service(id string, n *plan.Node) (*svcProg, error) {
	if _, ok := c.engine.invoker.Lane(n.Alias); !ok {
		return nil, fmt.Errorf("engine: no service bound for alias %q", n.Alias)
	}
	budget := c.ann.Fetches[id]
	if budget <= 0 || !n.Stats.Chunked() {
		budget = 1
	}
	sp := &svcProg{
		n: n, budget: budget, w: c.opts.Weights[n.Alias],
		hint: prefixHint(n, budget),
		in:   make(service.Input, len(n.Bindings)),
	}
	// The analyzer emits one binding per input path in path order; a
	// hand-written plan may list them in any order, and one that binds a
	// path twice has no position to give either binding.
	bs := n.Bindings
	if !slices.IsSortedFunc(bs, cmpBindingPath) {
		bs = slices.Clone(bs)
		slices.SortStableFunc(bs, cmpBindingPath)
	}
	for pos, b := range bs {
		if pos > 0 && bs[pos-1].Path == b.Path {
			return nil, fmt.Errorf("engine: service %s binds input %q twice", n.Alias, b.Path)
		}
		sp.in[pos].Path = b.Path
		switch b.Source.Kind {
		case query.BindConst:
			sp.in[pos].Value = b.Source.Const
		case query.BindInput:
			sp.inputs = append(sp.inputs, inputBind{pos: pos, input: b.Source.Input})
		case query.BindJoin:
			slot, ok := c.layout.slots[b.Source.From.Alias]
			if !ok {
				slot = -1
			}
			sp.pipes = append(sp.pipes, pipeBind{pos: pos, slot: slot, from: b.Source.From})
		}
	}
	var err error
	if sp.preds, err = compileSvcPreds(n, c.layout); err != nil {
		return nil, err
	}
	if sp.slot, err = c.layout.slot(n.Alias); err != nil {
		return nil, err
	}
	return sp, nil
}

// cmpBindingPath orders input bindings by path, the order of a
// service.Input.
func cmpBindingPath(a, b query.InputBinding) int { return strings.Compare(a.Path, b.Path) }

// join compiles a join node of any fan-in: its pair predicates become
// edges between the two branches each spans, and a binary join whose
// predicates are not all atomic equalities is marked for the explorer.
// A predicate that does not relate two different branches has no pair of
// rows to be evaluated on, so the node is refused.
func (c *compiler) join(n *plan.Node, preds []string) (*multiProg, error) {
	jps, err := compileJoinPreds(n, c.layout)
	if err != nil {
		return nil, err
	}
	// Resolve which branch produces each layout slot, so every predicate
	// maps to the two branches it spans.
	slotBranch := make([]int, c.layout.width())
	for i := range slotBranch {
		slotBranch[i] = -1
	}
	mp := &multiProg{
		sizes:    make([]int, len(preds)),
		edges:    make([]multiEdge, 0, len(jps)),
		incident: make([][]int, len(preds)),
		ones:     make([]float64, len(preds)),
	}
	for i, pid := range preds {
		mp.sizes[i] = c.chunkSizeOf(pid)
		mp.ones[i] = 1
		for alias := range branchAliases(c.ann.Plan, pid) {
			slot, err := c.layout.slot(alias)
			if err != nil {
				return nil, err
			}
			slotBranch[slot] = i
		}
	}
	allEq := len(jps) > 0
	for _, jp := range jps {
		bl, br := slotBranch[jp.leftSlot], slotBranch[jp.rightSlot]
		if bl < 0 || br < 0 || bl == br {
			return nil, fmt.Errorf("engine: %s %s predicate on %s and %s does not span two branches",
				n.Kind, n.ID, c.layout.aliases[jp.leftSlot], c.layout.aliases[jp.rightSlot])
		}
		hashable := jp.eqLeft != nil
		allEq = allEq && hashable
		mp.indexed = mp.indexed || hashable
		ei := len(mp.edges)
		mp.edges = append(mp.edges, multiEdge{jp: jp, bl: bl, br: br, hashable: hashable})
		mp.incident[bl] = append(mp.incident[bl], ei)
		mp.incident[br] = append(mp.incident[br], ei)
	}
	if n.Kind == plan.KindJoin {
		if err := n.Strategy.Validate(); err != nil {
			return nil, err
		}
		mp.explore = !allEq
	}
	return mp, nil
}

// branchAliases collects the service aliases a branch subtree produces
// (the branch root itself plus everything upstream of it).
func branchAliases(p *plan.Plan, id string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]bool{}
	stack := []string{id}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		if n, ok := p.Node(cur); ok && n.Kind == plan.KindService {
			out[n.Alias] = true
		}
		stack = append(stack, p.Predecessors(cur)...)
	}
	return out
}

// chunkSizeOf picks the re-chunking granularity of a join input: the
// originating service's chunk size when the predecessor is a chunked
// service node, the configured default otherwise.
func (c *compiler) chunkSizeOf(id string) int {
	if n, ok := c.ann.Plan.Node(id); ok && n.Kind == plan.KindService && n.Stats.Chunked() {
		return n.Stats.ChunkSize
	}
	if c.opts.DefaultChunkSize > 0 {
		return c.opts.DefaultChunkSize
	}
	return DefaultRechunkSize
}

// describe reports the program for plancheck.CheckOpGraph.
func (p *Prepared) describe() plancheck.OpGraph {
	g := plancheck.OpGraph{Root: p.nodes[p.root].id, Ops: make([]plancheck.OpDesc, len(p.nodes))}
	for i := range p.nodes {
		pn := &p.nodes[i]
		d := plancheck.OpDesc{Node: pn.id, Kind: pn.kind, Shared: pn.shared}
		for _, j := range pn.inputs {
			d.Inputs = append(d.Inputs, p.nodes[j].id)
		}
		g.Ops[i] = d
	}
	return g
}
