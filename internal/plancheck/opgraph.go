package plancheck

import (
	"seco/internal/plan"
)

// This file verifies the engine's compiled operator graph against the
// plan it was compiled from. The engine describes each compiled operator
// neutrally (OpDesc) so the check lives here, beside the other plan
// invariants, without plancheck importing the engine.

// CodeCompile: the compiled operator graph disagrees with the plan —
// a node compiled to the wrong operator kind, with the wrong inputs,
// missing, duplicated, or with a sharing decision that contradicts the
// plan's fan-out.
const CodeCompile = "plan-compile"

// Operator kinds a compiled plan node can map to, as reported in
// OpDesc.Kind.
const (
	// OpInput: the single-empty-combination source of the input node.
	OpInput = "input"
	// OpSelection: a filtering operator over one upstream.
	OpSelection = "selection"
	// OpScan: the service scan of a non-piped service node.
	OpScan = "scan"
	// OpPipe: the demand-paged pipe join of a piped service node.
	OpPipe = "pipe"
	// OpJoin: the parallel (tile-explored) join of a join node.
	OpJoin = "join"
	// OpMultiJoin: the n-ary ranked (sorted-intersection) join of a
	// multijoin node.
	OpMultiJoin = "multijoin"
)

// OpDesc describes one compiled operator.
type OpDesc struct {
	// Node is the plan node the operator implements.
	Node string
	// Kind is one of the Op* constants.
	Kind string
	// Inputs are the plan nodes whose operators feed this one, in wiring
	// order.
	Inputs []string
	// Shared reports that the operator is evaluated once and fanned out
	// to several consumers through tees.
	Shared bool
}

// OpGraph describes a compiled operator graph.
type OpGraph struct {
	// Root is the plan node whose operator the driver pulls (the output
	// node's single predecessor).
	Root string
	// Ops lists one description per compiled plan node.
	Ops []OpDesc
}

// CheckOpGraph verifies a compiled operator graph against its plan: every
// node except the output must compile to exactly one operator of the kind
// the node's plan kind dictates (service nodes split into scan vs. pipe on
// their binding sources), wired to exactly the node's plan predecessors,
// shared iff the node fans out to several plan successors, and the root
// must be the output node's predecessor. Any disagreement is an Error: a
// mis-compiled graph would execute a different query than the plan the
// caller validated.
func CheckOpGraph(p *plan.Plan, g OpGraph) *Report {
	r := &Report{}
	if p == nil {
		r.add(CodeCompile, "", Error, "plan is nil")
		return r
	}
	byNode := map[string]OpDesc{}
	for _, d := range g.Ops {
		if _, dup := byNode[d.Node]; dup {
			r.add(CodeCompile, d.Node, Error, "node compiled to more than one operator")
			continue
		}
		byNode[d.Node] = d
	}
	outID := ""
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		if n.Kind == plan.KindOutput {
			outID = id
			if _, ok := byNode[id]; ok {
				r.add(CodeCompile, id, Error, "output node has an operator; the driver pulls its predecessor directly")
				delete(byNode, id)
			}
			continue
		}
		d, ok := byNode[id]
		if !ok {
			r.add(CodeCompile, id, Error, "node has no compiled operator")
			continue
		}
		delete(byNode, id)
		if want := wantKind(n); d.Kind != want {
			r.add(CodeCompile, id, Error, "node compiled to a %q operator, want %q", d.Kind, want)
		}
		preds := p.Predecessors(id)
		if !sameStrings(d.Inputs, preds) {
			r.add(CodeCompile, id, Error, "operator wired to inputs %v, want plan predecessors %v", d.Inputs, preds)
		}
		if fanout := len(p.Successors(id)) > 1; d.Shared != fanout {
			if fanout {
				r.add(CodeCompile, id, Error, "node fans out to %d consumers but its operator is not shared", len(p.Successors(id)))
			} else {
				r.add(CodeCompile, id, Error, "single-consumer node compiled to a shared operator")
			}
		}
	}
	for id := range byNode {
		r.add(CodeCompile, id, Error, "operator for unknown plan node")
	}
	if outID != "" {
		if preds := p.Predecessors(outID); len(preds) == 1 && g.Root != preds[0] {
			r.add(CodeCompile, outID, Error, "graph root is %q, want the output's predecessor %q", g.Root, preds[0])
		}
	}
	return r
}

// wantKind maps a plan node to the operator kind its compilation must
// produce.
func wantKind(n *plan.Node) string {
	switch n.Kind {
	case plan.KindInput:
		return OpInput
	case plan.KindSelection:
		return OpSelection
	case plan.KindService:
		if n.PipedFrom() {
			return OpPipe
		}
		return OpScan
	case plan.KindJoin:
		return OpJoin
	case plan.KindMultiJoin:
		return OpMultiJoin
	}
	return ""
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
