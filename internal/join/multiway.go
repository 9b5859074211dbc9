package join

import (
	"fmt"

	"seco/internal/query"
	"seco/internal/types"
)

// This file defines the legality rules of the third join topology: the
// multi-way ranked join. Pipe and parallel joins accept any compilable
// predicate; the n-ary operator instead intersects per-branch posting
// lists keyed by atomic values, so every cross-branch predicate must fall
// into one of two classes the intersection engine understands — atomic
// equality (keyable) or bounded proximity
// (an order comparison verified on the sorted candidate frontier).
// Dotted group paths, and any other operator, make a node illegal for
// the multi-way topology; the optimizer then falls back to binary trees.

// ConditionClass classifies one cross-branch predicate for the
// multi-way join.
type ConditionClass int

const (
	// CondIllegal: the predicate cannot drive a multi-way intersection
	// (dotted group path on either side, or an operator outside the
	// equality/proximity classes).
	CondIllegal ConditionClass = iota
	// CondEquality: an atomic equality over two top-level attribute
	// paths — the posting-list intersection key.
	CondEquality
	// CondProximity: a bounded order comparison (<, <=, >, >=) over two
	// top-level attribute paths — verified per candidate after the
	// equality edges intersect.
	CondProximity
)

// String names the condition class.
func (c ConditionClass) String() string {
	switch c {
	case CondEquality:
		return "equality"
	case CondProximity:
		return "proximity"
	default:
		return "illegal"
	}
}

// atomicPath reports whether a path addresses a top-level attribute (no
// group traversal): only those carry a single value to key on.
func atomicPath(path string) bool {
	for i := 0; i < len(path); i++ {
		if path[i] == '.' {
			return false
		}
	}
	return path != ""
}

// ClassifyCondition classifies one predicate for the multi-way join.
// Predicates that do not relate two services are always illegal.
func ClassifyCondition(p query.Predicate) ConditionClass {
	if p.Right.Kind != query.TermPath {
		return CondIllegal
	}
	if !atomicPath(p.Left.Path) || !atomicPath(p.Right.Path.Path) {
		return CondIllegal
	}
	switch p.Op {
	case types.OpEq:
		return CondEquality
	case types.OpLt, types.OpLe, types.OpGt, types.OpGe:
		return CondProximity
	default:
		return CondIllegal
	}
}

// LegalMultiway reports whether a predicate set can drive a multi-way
// ranked join: every predicate must classify as equality or proximity,
// and at least one must be an equality (a join with only proximity edges
// has no posting-list key and would degenerate to a filtered cross
// product). A nil error means legal.
func LegalMultiway(preds []query.Predicate) error {
	if len(preds) == 0 {
		return fmt.Errorf("join: multiway node has no cross-branch predicates")
	}
	eq := 0
	for _, p := range preds {
		switch ClassifyCondition(p) {
		case CondEquality:
			eq++
		case CondProximity:
		default:
			return fmt.Errorf("join: predicate %s is not an atomic equality or bounded proximity", p)
		}
	}
	if eq == 0 {
		return fmt.Errorf("join: multiway node has no equality edge among %d predicates", len(preds))
	}
	return nil
}

// CoverMultiway verifies that every branch of a multi-way join is bound
// by at least one legal cross predicate: branches[i] is the alias set a
// branch contributes, and each must be touched by some predicate whose
// other side lies in a different branch. It returns the indexes of
// unbound branches (empty = fully covered).
func CoverMultiway(branches []map[string]bool, preds []query.Predicate) []int {
	bound := make([]bool, len(branches))
	branchOf := func(alias string) int {
		for i, set := range branches {
			if set[alias] {
				return i
			}
		}
		return -1
	}
	for _, p := range preds {
		if ClassifyCondition(p) == CondIllegal {
			continue
		}
		l := branchOf(p.Left.Alias)
		r := branchOf(p.Right.Path.Alias)
		if l < 0 || r < 0 || l == r {
			continue
		}
		bound[l], bound[r] = true, true
	}
	var unbound []int
	for i, b := range bound {
		if !b {
			unbound = append(unbound, i)
		}
	}
	return unbound
}
