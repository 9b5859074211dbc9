package query

import (
	"maps"
	"testing"
)

// FuzzParse checks that printing is the inverse of parsing: whenever
// Parse accepts a source, it accepts the query's String too and reads
// back the same services, conditions and weights. Constants compare by
// value, not by text — "-0.0" prints as "-0", which reparses as the
// integer 0. testdata/fuzz/FuzzParse holds the inputs that once broke
// the round trip: quotes and backslashes inside strings, a raw non-UTF-8
// byte, numbers that printed with an exponent, and a weight for an alias
// the select clause lacks.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		RunningExampleText,
		TravelExampleText,
		TriangleExampleText,
		`Q: select S as A, S as B where A.X = B.X and A.Y >= 3 and A.Z like 'p%' rank 0.5 A, 0.5 B`,
		`select S as A where A.D > 2009-07-01 and A.F < -2.5 and A.B = true and A.N = null`,
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return
		}
		printed := q.String()
		r, err := Parse(printed)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", src, printed, err)
		}
		if !sameQuery(q, r) {
			t.Fatalf("%q prints as %q, which parses to a different query: %q", src, printed, r.String())
		}
	})
}

// sameQuery compares two parsed queries, constants by value.
func sameQuery(a, b *Query) bool {
	if a.Name != b.Name || len(a.Services) != len(b.Services) || len(a.Patterns) != len(b.Patterns) ||
		len(a.Predicates) != len(b.Predicates) || !maps.Equal(a.Weights, b.Weights) {
		return false
	}
	for i := range a.Services {
		if a.Services[i] != b.Services[i] {
			return false
		}
	}
	for i := range a.Patterns {
		if a.Patterns[i] != b.Patterns[i] {
			return false
		}
	}
	for i, p := range a.Predicates {
		q := b.Predicates[i]
		if p.Left != q.Left || p.Op != q.Op || p.Right.Kind != q.Right.Kind ||
			p.Right.Input != q.Right.Input || p.Right.Path != q.Right.Path {
			return false
		}
		if p.Right.Kind == TermConst && !p.Right.Const.Equal(q.Right.Const) &&
			!(p.Right.Const.IsNull() && q.Right.Const.IsNull()) {
			return false
		}
	}
	return true
}
