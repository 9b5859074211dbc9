package engine

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"seco/internal/join"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/types"
)

// This file is the one home of the join-predicate plumbing shared by the
// service operators (sequential and piped composition) and the join
// operator — all in compiled form: a node's predicates are grouped by
// alias pair once at compile time, their dotted paths are cut by
// join.Compile, and alias routing is resolved to layout slots, so the
// per-tuple hot loop performs no string cutting, map building or alias
// hashing.

// pairPred bundles the join conditions between one pair of aliases into a
// single join.Predicate so repeating-group mappings stay consistent across
// the pair's conditions (Section 3.1 semantics).
type pairPred struct {
	leftAlias, rightAlias string
	pred                  join.Predicate
}

// groupJoinPreds groups join predicates by alias pair, in deterministic
// (left, right) alias order.
func groupJoinPreds(preds []query.Predicate) []pairPred {
	byKey := map[string]int{}
	var out []pairPred
	for _, p := range preds {
		if p.Right.Kind != query.TermPath {
			continue
		}
		la, ra := p.Left.Alias, p.Right.Path.Alias
		key := la + "|" + ra
		i, ok := byKey[key]
		if !ok {
			i = len(out)
			byKey[key] = i
			out = append(out, pairPred{leftAlias: la, rightAlias: ra})
		}
		out[i].pred.Conds = append(out[i].pred.Conds, join.Condition{
			Left: p.Left.Path, Op: p.Op, Right: p.Right.Path.Path,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].leftAlias != out[j].leftAlias {
			return out[i].leftAlias < out[j].leftAlias
		}
		return out[i].rightAlias < out[j].rightAlias
	})
	return out
}

// svcPred is one compiled pair predicate as seen from a service node: the
// new component is matched against the already-present peer component at
// otherSlot, on whichever predicate side the node's alias occupies.
type svcPred struct {
	cp        *join.CompiledPredicate
	selfLeft  bool
	otherSlot int
}

// compileSvcPreds compiles a service node's pair predicates against the
// layout, leaving out every condition the node's own pipe bindings
// realize: the invocation bound the input to the peer's value, and a
// service answers only with tuples satisfying its bindings (see
// service.Service), so the condition holds for every tuple the node
// reads. A pair with no condition left compiles to nothing.
func compileSvcPreds(n *plan.Node, layout *aliasLayout) ([]svcPred, error) {
	residue := slices.DeleteFunc(slices.Clone(n.JoinPreds), func(p query.Predicate) bool {
		return pipeRealizes(n, p)
	})
	pps := groupJoinPreds(residue)
	out := make([]svcPred, 0, len(pps))
	for _, pp := range pps {
		sp := svcPred{cp: join.Compile(pp.pred), selfLeft: n.Alias == pp.leftAlias}
		other := pp.leftAlias
		if sp.selfLeft {
			other = pp.rightAlias
		}
		slot, err := layout.slot(other)
		if err != nil {
			return nil, err
		}
		sp.otherSlot = slot
		out = append(out, sp)
	}
	return out, nil
}

// pipeRealizes reports whether the node's pipe bindings realize the join
// predicate, in either orientation: it is an equality between a path of
// the node and a peer's path, the node's input at that path is piped from
// the peer's path under equality, and both paths are atomic. A
// repeating-group path stays checked: the pipe binds one value, while the
// predicate maps one sub-tuple per group consistently across its pair's
// conditions (Section 3.1).
func pipeRealizes(n *plan.Node, p query.Predicate) bool {
	if p.Op != types.OpEq || p.Right.Kind != query.TermPath {
		return false
	}
	self, peer := p.Left, p.Right.Path
	if peer.Alias == n.Alias {
		self, peer = peer, self
	}
	if self.Alias != n.Alias || strings.Contains(self.Path, ".") || strings.Contains(peer.Path, ".") {
		return false
	}
	for _, b := range n.Bindings {
		if b.Path == self.Path && b.Source.Kind == query.BindJoin &&
			b.Source.Op == types.OpEq && b.Source.From == peer {
			return true
		}
	}
	return false
}

// match evaluates the predicate with the node's own tuple on whichever
// side it belongs to.
func (sp *svcPred) match(selfT, otherT *types.Tuple) (bool, error) {
	if sp.selfLeft {
		return sp.cp.Match(selfT, otherT)
	}
	return sp.cp.Match(otherT, selfT)
}

// joinPred is one compiled pair predicate as seen from a join: both alias
// slots resolved, plus the equality-column split the join operator's
// posting lists key on (empty when the predicate is not a pure atomic
// equality).
type joinPred struct {
	cp                  *join.CompiledPredicate
	leftSlot, rightSlot int
	// eqLeft/eqRight are the per-condition atomic equality columns when
	// the predicate is hashable (HasOnlyAtomicEq); nil otherwise.
	eqLeft, eqRight []string
}

// compileJoinPreds compiles a join node's pair predicates against the
// layout.
func compileJoinPreds(n *plan.Node, layout *aliasLayout) ([]joinPred, error) {
	pps := groupJoinPreds(n.JoinPreds)
	out := make([]joinPred, 0, len(pps))
	for _, pp := range pps {
		jp := joinPred{cp: join.Compile(pp.pred)}
		var err error
		if jp.leftSlot, err = layout.slot(pp.leftAlias); err != nil {
			return nil, err
		}
		if jp.rightSlot, err = layout.slot(pp.rightAlias); err != nil {
			return nil, err
		}
		if jp.cp.HasOnlyAtomicEq() {
			jp.eqLeft, jp.eqRight = jp.cp.EqKeyColumns()
		}
		out = append(out, jp)
	}
	return out, nil
}

// matchSvc checks a service node's compiled pair predicates between a new
// component and the peer components already in c.
func matchSvc(c *comb, tu *types.Tuple, preds []svcPred) (bool, error) {
	for i := range preds {
		sp := &preds[i]
		other := c.comps[sp.otherSlot]
		if other == nil {
			continue // the peer component joins later in the plan
		}
		if ok, err := sp.match(tu, other); err != nil || !ok {
			return false, err
		}
	}
	return true, nil
}

// compose merges a matched new component into c, scored by rankWith.
func compose(a *combArena, c *comb, slot int, tu *types.Tuple, score float64) *comb {
	if c.comps[slot] != nil {
		panic(fmt.Sprintf("engine: duplicate slot %d in composition", slot))
	}
	m := a.clone(c)
	m.comps[slot], m.score = tu, score
	return m
}

// compiledSel is one selection predicate with its left path pre-cut and
// its alias resolved to a slot. The right term stays lazily resolved so
// unbound-input errors keep surfacing at evaluation time, as before.
type compiledSel struct {
	src    query.Predicate
	slot   int
	op     types.Op
	dotted bool
	atom   string
	group  string
	sub    string
	// Right-hand term, pre-resolved where possible.
	constV    types.Value
	isConst   bool
	inputName string
	rSlot     int // TermPath: peer component slot
	rDotted   bool
	rAtom     string
	rGroup    string
	rSub      string
	isPath    bool
}

// compileSelections compiles a selection node's predicates against the
// layout.
func compileSelections(preds []query.Predicate, layout *aliasLayout) ([]compiledSel, error) {
	out := make([]compiledSel, 0, len(preds))
	for _, p := range preds {
		cs := compiledSel{src: p, op: p.Op}
		slot, err := layout.slot(p.Left.Alias)
		if err != nil {
			return nil, err
		}
		cs.slot = slot
		if g, sub, ok := strings.Cut(p.Left.Path, "."); ok {
			cs.dotted, cs.group, cs.sub = true, g, sub
		} else {
			cs.atom = p.Left.Path
		}
		switch p.Right.Kind {
		case query.TermConst:
			cs.isConst, cs.constV = true, p.Right.Const
		case query.TermInput:
			cs.inputName = p.Right.Input
		default:
			cs.isPath = true
			if cs.rSlot, err = layout.slot(p.Right.Path.Alias); err != nil {
				return nil, err
			}
			if g, sub, ok := strings.Cut(p.Right.Path.Path, "."); ok {
				cs.rDotted, cs.rGroup, cs.rSub = true, g, sub
			} else {
				cs.rAtom = p.Right.Path.Path
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// rhs resolves the right-hand term of the selection against the comb.
func (cs *compiledSel) rhs(ex *executor, c *comb) (types.Value, error) {
	switch {
	case cs.isConst:
		return cs.constV, nil
	case cs.isPath:
		t := c.comps[cs.rSlot]
		if t == nil {
			return types.Null, nil
		}
		if cs.rDotted {
			return t.GroupFirst(cs.rGroup, cs.rSub), nil
		}
		return t.Atomic(cs.rAtom), nil
	default:
		v, ok := ex.run.Inputs[cs.inputName]
		if !ok {
			return types.Null, fmt.Errorf("engine: unbound input variable %s", cs.inputName)
		}
		return v, nil
	}
}

// eval evaluates the selection on a comb: atomic paths directly,
// repeating-group paths existentially over the sub-tuples.
func (cs *compiledSel) eval(ex *executor, c *comb) (bool, error) {
	rhs, err := cs.rhs(ex, c)
	if err != nil {
		return false, err
	}
	t := c.comps[cs.slot]
	if t == nil {
		return false, nil
	}
	if !cs.dotted {
		return cs.op.Eval(t.Atomic(cs.atom), rhs)
	}
	subs, isGroup := t.Groups[cs.group]
	if !isGroup {
		// A dotted path on a tuple without that group resolves to Null,
		// exactly as the uncompiled Tuple.Get did.
		return cs.op.Eval(types.Null, rhs)
	}
	for _, st := range subs {
		ok, err := cs.op.Eval(st[cs.sub], rhs)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
