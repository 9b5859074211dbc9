package types

import "fmt"

// Op is a comparison operator of the query language (Section 3.1):
// {=, <, <=, >, >=, like}.
type Op int

const (
	// OpEq is equality (=).
	OpEq Op = iota
	// OpLt is less-than (<).
	OpLt
	// OpLe is less-or-equal (<=).
	OpLe
	// OpGt is greater-than (>).
	OpGt
	// OpGe is greater-or-equal (>=).
	OpGe
	// OpLike is the case-insensitive pattern match.
	OpLike
)

// ParseOp parses the textual form of an operator.
func ParseOp(s string) (Op, error) {
	switch s {
	case "=":
		return OpEq, nil
	case "<":
		return OpLt, nil
	case "<=":
		return OpLe, nil
	case ">":
		return OpGt, nil
	case ">=":
		return OpGe, nil
	case "like", "LIKE":
		return OpLike, nil
	default:
		return 0, fmt.Errorf("types: unknown operator %q", s)
	}
}

// String returns the operator's source form.
func (op Op) String() string {
	switch op {
	case OpEq:
		return "="
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpLike:
		return "like"
	default:
		return fmt.Sprintf("Op(%d)", int(op))
	}
}

// Eval applies the operator to two values. Comparisons against null are
// false without error, matching the query semantics in which a missing
// attribute never satisfies a predicate.
func (op Op) Eval(a, b Value) (bool, error) {
	if a.IsNull() || b.IsNull() {
		return false, nil
	}
	if op == OpEq && a.kind == KindString && b.kind == KindString {
		return a.s == b.s, nil
	}
	if op == OpLike {
		return a.Like(b)
	}
	c, err := a.Compare(b)
	if err != nil {
		return false, err
	}
	switch op {
	case OpEq:
		return c == 0, nil
	case OpLt:
		return c < 0, nil
	case OpLe:
		return c <= 0, nil
	case OpGt:
		return c > 0, nil
	case OpGe:
		return c >= 0, nil
	default:
		return false, fmt.Errorf("types: cannot evaluate operator %v", op)
	}
}

// Selectivity returns the default selectivity estimate for the operator,
// used by the annotation engine when no per-predicate statistics are
// registered. The figures follow the classical System R defaults.
func (op Op) Selectivity() float64 {
	switch op {
	case OpEq:
		return 0.1
	case OpLike:
		return 0.25
	default: // range comparators
		return 1.0 / 3.0
	}
}
