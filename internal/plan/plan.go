// Package plan models executable query plans (Section 3.2): directed
// acyclic graphs whose nodes are service invocations, parallel joins,
// selections and the query input/output, and whose arcs carry dataflow.
// The package also implements the annotation engine that computes the
// expected tuple flows (tin, tout) and request-response counts of a fully
// instantiated plan, reproducing the worked numbers of Figs. 3 and 10.
package plan

import (
	"fmt"
	"sort"
	"sync/atomic"

	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/query"
	"seco/internal/service"
)

// NodeKind discriminates plan nodes, following the alphabet of Fig. 1.
type NodeKind int

const (
	// KindInput is the unique start node that injects the single user
	// input tuple.
	KindInput NodeKind = iota
	// KindOutput is the unique sink returning combinations to the query
	// interface.
	KindOutput
	// KindService is a service invocation (exact or search; the service
	// statistics decide).
	KindService
	// KindJoin is an explicit parallel-join node.
	KindJoin
	// KindSelection evaluates residual predicates on passing tuples.
	KindSelection
	// KindMultiJoin is an n-ary ranked join over three or more branches:
	// all cross-branch predicates are evaluated in one operator, so cyclic
	// connection patterns never materialize an intermediate larger than the
	// output. Legality (atomic equality or bounded proximity only) is
	// enforced by plancheck via join.LegalMultiway.
	KindMultiJoin
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case KindInput:
		return "input"
	case KindOutput:
		return "output"
	case KindService:
		return "service"
	case KindJoin:
		return "join"
	case KindSelection:
		return "selection"
	case KindMultiJoin:
		return "multijoin"
	default:
		return fmt.Sprintf("NodeKind(%d)", int(k))
	}
}

// Node is one operation of a query plan.
type Node struct {
	// ID is unique within the plan. Service nodes use the query alias.
	ID string
	// Kind discriminates the variant.
	Kind NodeKind

	// Service-node fields.

	// Alias is the query alias of a service node.
	Alias string
	// Interface is the bound service interface.
	Interface *mart.Interface
	// Stats is the statistics snapshot used for annotation and costing.
	Stats service.Stats
	// Bindings describes how each input path is covered (constants,
	// INPUT variables, or pipes from upstream services).
	Bindings []query.InputBinding
	// PipeSelectivity is the probability that one upstream tuple piped
	// into this service yields any match (the selectivity of the pipe
	// join; 1 for services fed only by user input).
	PipeSelectivity float64
	// Limit caps the tuples kept per invocation (0 = no cap). Fig. 10
	// keeps only the best restaurant per theatre: Limit = 1.
	Limit int

	// Join-node fields.

	// Strategy is the parallel-join method.
	Strategy join.Strategy
	// JoinSelectivity is the fraction of candidate pairs that satisfy
	// the join predicate.
	JoinSelectivity float64
	// JoinPreds are the equality predicates evaluated by the join.
	JoinPreds []query.Predicate

	// Selection-node fields.

	// Selections are the residual predicates evaluated by a selection
	// node.
	Selections []query.Predicate
	// Selectivity is their combined selectivity estimate.
	Selectivity float64
}

// IsSearch reports whether a service node invokes a search service.
func (n *Node) IsSearch() bool {
	return n.Kind == KindService && n.Interface != nil && n.Interface.IsSearch()
}

// PipedFrom reports whether any input of a service node is piped from an
// upstream service (a BindJoin binding), which forces one invocation per
// incoming tuple instead of a single invocation.
func (n *Node) PipedFrom() bool {
	for _, b := range n.Bindings {
		if b.Source.Kind == query.BindJoin {
			return true
		}
	}
	return false
}

// Plan is a query plan DAG. Build it with AddNode/Connect, then Validate.
type Plan struct {
	nodes map[string]*Node
	succ  map[string][]string
	pred  map[string][]string
	// K is the number of requested output combinations (the optimization
	// parameter of Section 3.2).
	K int
	// lay is the resolved shape, nil until the first Layout call after
	// the last AddNode/Connect.
	lay atomic.Pointer[Layout]
}

// Layout is the resolved shape of a plan: everything annotation, costing
// and validation need to walk it by position instead of by name. It is
// derived once after the last AddNode/Connect, shared by every caller
// and never modified.
type Layout struct {
	// Nodes lists the nodes in the deterministic topological order of
	// TopoSort; a node's index here is its position.
	Nodes []*Node
	// Preds holds, per position, the positions of the node's
	// predecessors, ordered by predecessor ID.
	Preds [][]int
	// Output is the position of the output node, -1 when the plan has
	// none (a partial plan).
	Output int
	pos    map[string]int // node ID → position
}

// Layout resolves the plan's shape, or fails when the graph has a cycle.
// It is safe for concurrent use once the plan is no longer being built.
func (p *Plan) Layout() (*Layout, error) {
	if l := p.lay.Load(); l != nil {
		return l, nil
	}
	l, err := p.resolve()
	if err != nil {
		return nil, err
	}
	p.lay.Store(l)
	return l, nil
}

// resolve runs Kahn's algorithm, always placing the smallest ready ID
// next, and numbers each node's predecessors by position.
func (p *Plan) resolve() (*Layout, error) {
	n := len(p.nodes)
	l := &Layout{Nodes: make([]*Node, 0, n), Preds: make([][]int, n), Output: -1, pos: make(map[string]int, n)}
	indeg := make(map[string]int, n)
	ready := make([]string, 0, n)
	arcs := 0
	for id := range p.nodes {
		d := len(p.pred[id])
		indeg[id] = d
		arcs += d
		if d == 0 {
			ready = append(ready, id)
		}
	}
	sort.Strings(ready)
	for len(ready) > 0 {
		id := ready[0]
		ready = ready[1:]
		node := p.nodes[id]
		if node.Kind == KindOutput {
			l.Output = len(l.Nodes)
		}
		l.pos[id] = len(l.Nodes)
		l.Nodes = append(l.Nodes, node)
		for _, s := range p.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				at := sort.SearchStrings(ready, s)
				ready = append(ready, "")
				copy(ready[at+1:], ready[at:])
				ready[at] = s
			}
		}
	}
	if len(l.Nodes) != n {
		return nil, fmt.Errorf("plan: cycle detected (%d of %d nodes ordered)", len(l.Nodes), n)
	}
	backing := make([]int, 0, arcs)
	for i, node := range l.Nodes {
		from := len(backing)
		for _, pr := range p.pred[node.ID] {
			backing = append(backing, l.pos[pr])
		}
		ps := backing[from:len(backing):len(backing)]
		for a := 1; a < len(ps); a++ { // insertion sort by ID: fan-in is tiny
			for b := a; b > 0 && l.Nodes[ps[b]].ID < l.Nodes[ps[b-1]].ID; b-- {
				ps[b], ps[b-1] = ps[b-1], ps[b]
			}
		}
		l.Preds[i] = ps
	}
	return l, nil
}

// New returns an empty plan with the given K.
func New(k int) *Plan {
	return &Plan{
		nodes: make(map[string]*Node),
		succ:  make(map[string][]string),
		pred:  make(map[string][]string),
		K:     k,
	}
}

// AddNode inserts a node; IDs must be unique.
func (p *Plan) AddNode(n *Node) error {
	if n.ID == "" {
		return fmt.Errorf("plan: node with empty ID")
	}
	if _, dup := p.nodes[n.ID]; dup {
		return fmt.Errorf("plan: duplicate node %q", n.ID)
	}
	p.nodes[n.ID] = n
	p.lay.Store(nil)
	return nil
}

// Connect adds a dataflow arc from → to.
func (p *Plan) Connect(from, to string) error {
	if _, ok := p.nodes[from]; !ok {
		return fmt.Errorf("plan: arc from unknown node %q", from)
	}
	if _, ok := p.nodes[to]; !ok {
		return fmt.Errorf("plan: arc to unknown node %q", to)
	}
	for _, s := range p.succ[from] {
		if s == to {
			return fmt.Errorf("plan: duplicate arc %s→%s", from, to)
		}
	}
	p.succ[from] = append(p.succ[from], to)
	p.pred[to] = append(p.pred[to], from)
	p.lay.Store(nil)
	return nil
}

// Node returns a node by ID.
func (p *Plan) Node(id string) (*Node, bool) {
	n, ok := p.nodes[id]
	return n, ok
}

// Successors returns the successors of a node, sorted.
func (p *Plan) Successors(id string) []string {
	out := append([]string(nil), p.succ[id]...)
	sort.Strings(out)
	return out
}

// Predecessors returns the predecessors of a node, sorted.
func (p *Plan) Predecessors(id string) []string {
	in := append([]string(nil), p.pred[id]...)
	sort.Strings(in)
	return in
}

// NodeIDs returns every node ID, sorted.
func (p *Plan) NodeIDs() []string {
	ids := make([]string, 0, len(p.nodes))
	for id := range p.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ServiceNodes returns the service nodes in topological order.
func (p *Plan) ServiceNodes() []*Node {
	l, err := p.Layout()
	if err != nil {
		return nil
	}
	var ns []*Node
	for _, n := range l.Nodes {
		if n.Kind == KindService {
			ns = append(ns, n)
		}
	}
	return ns
}

// TopoSort returns a deterministic topological order (Kahn's algorithm,
// smallest ID first) or an error if the graph has a cycle.
func (p *Plan) TopoSort() ([]string, error) {
	l, err := p.Layout()
	if err != nil {
		return nil, err
	}
	order := make([]string, len(l.Nodes))
	for i, n := range l.Nodes {
		order[i] = n.ID
	}
	return order, nil
}

// Validate checks structural well-formedness: exactly one input and one
// output node, acyclicity, every node on a path from input to output,
// join nodes with exactly two predecessors (multijoin nodes with at least
// two), service and selection nodes with exactly one, and K positive.
func (p *Plan) Validate() error {
	if p.K <= 0 {
		return fmt.Errorf("plan: K must be positive, got %d", p.K)
	}
	var inputs, outputs int
	for _, n := range p.nodes {
		switch n.Kind {
		case KindInput:
			inputs++
			if len(p.pred[n.ID]) != 0 {
				return fmt.Errorf("plan: input node %q has predecessors", n.ID)
			}
		case KindOutput:
			outputs++
			if len(p.succ[n.ID]) != 0 {
				return fmt.Errorf("plan: output node %q has successors", n.ID)
			}
			if len(p.pred[n.ID]) != 1 {
				return fmt.Errorf("plan: output node %q needs exactly one predecessor, has %d", n.ID, len(p.pred[n.ID]))
			}
		case KindJoin:
			if len(p.pred[n.ID]) != 2 {
				return fmt.Errorf("plan: join node %q needs exactly two predecessors, has %d", n.ID, len(p.pred[n.ID]))
			}
			if err := n.Strategy.Validate(); err != nil {
				return fmt.Errorf("plan: join node %q: %w", n.ID, err)
			}
			if n.JoinSelectivity <= 0 || n.JoinSelectivity > 1 {
				return fmt.Errorf("plan: join node %q selectivity %v out of (0,1]", n.ID, n.JoinSelectivity)
			}
		case KindMultiJoin:
			if len(p.pred[n.ID]) < 2 {
				return fmt.Errorf("plan: multijoin node %q needs at least two predecessors, has %d", n.ID, len(p.pred[n.ID]))
			}
			if n.JoinSelectivity <= 0 || n.JoinSelectivity > 1 {
				return fmt.Errorf("plan: multijoin node %q selectivity %v out of (0,1]", n.ID, n.JoinSelectivity)
			}
		case KindService:
			if len(p.pred[n.ID]) != 1 {
				return fmt.Errorf("plan: service node %q needs exactly one predecessor, has %d", n.ID, len(p.pred[n.ID]))
			}
			if n.Interface == nil {
				return fmt.Errorf("plan: service node %q has no interface", n.ID)
			}
			if err := n.Stats.Validate(); err != nil {
				return fmt.Errorf("plan: service node %q: %w", n.ID, err)
			}
			if n.PipeSelectivity < 0 || n.PipeSelectivity > 1 {
				return fmt.Errorf("plan: service node %q pipe selectivity %v out of [0,1]", n.ID, n.PipeSelectivity)
			}
		case KindSelection:
			if len(p.pred[n.ID]) != 1 {
				return fmt.Errorf("plan: selection node %q needs exactly one predecessor, has %d", n.ID, len(p.pred[n.ID]))
			}
			if n.Selectivity <= 0 || n.Selectivity > 1 {
				return fmt.Errorf("plan: selection node %q selectivity %v out of (0,1]", n.ID, n.Selectivity)
			}
		}
	}
	if inputs != 1 {
		return fmt.Errorf("plan: need exactly one input node, have %d", inputs)
	}
	if outputs != 1 {
		return fmt.Errorf("plan: need exactly one output node, have %d", outputs)
	}
	l, err := p.Layout()
	if err != nil {
		return err
	}
	// Reachability from input and co-reachability from output: forwards,
	// a node is reached through any reached predecessor; backwards, a
	// node that reaches the output passes that on to its predecessors.
	reach := make([]bool, len(l.Nodes))
	for i, n := range l.Nodes {
		reach[i] = n.Kind == KindInput
		for _, pr := range l.Preds[i] {
			reach[i] = reach[i] || reach[pr]
		}
	}
	coreach := make([]bool, len(l.Nodes))
	for i := len(l.Nodes) - 1; i >= 0; i-- {
		if l.Nodes[i].Kind == KindOutput {
			coreach[i] = true
		}
		if coreach[i] {
			for _, pr := range l.Preds[i] {
				coreach[pr] = true
			}
		}
	}
	for i, n := range l.Nodes {
		if !reach[i] {
			return fmt.Errorf("plan: node %q not reachable from input", n.ID)
		}
		if !coreach[i] {
			return fmt.Errorf("plan: node %q cannot reach output", n.ID)
		}
	}
	return nil
}

// Clone returns a deep copy of the plan graph (nodes are copied shallowly
// except for slices, which are duplicated).
func (p *Plan) Clone() *Plan {
	c := New(p.K)
	for id, n := range p.nodes {
		cn := *n
		cn.Bindings = append([]query.InputBinding(nil), n.Bindings...)
		cn.JoinPreds = append([]query.Predicate(nil), n.JoinPreds...)
		cn.Selections = append([]query.Predicate(nil), n.Selections...)
		c.nodes[id] = &cn
	}
	for from, tos := range p.succ {
		c.succ[from] = append([]string(nil), tos...)
	}
	for to, froms := range p.pred {
		c.pred[to] = append([]string(nil), froms...)
	}
	return c
}
