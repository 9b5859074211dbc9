// Package detrange reports map-range loops that build ordered slices.
// Go map iteration order is deliberately randomized, so appending to a
// slice while ranging over a map yields a different element order on
// every run — which in the optimizer and plan packages silently breaks
// plan determinism (stable topology enumeration, stable JSON encodings,
// reproducible branch-and-bound tie-breaks).
//
// A loop is exempt when the slice is later handed to a sorting call
// (sort.Strings, sort.Slice, slices.Sort, …) in the same function:
// sorting re-establishes a deterministic order, which is the repo's
// standard idiom (collect then sort). A search or an IsSorted check reads
// the slice without ordering it, so it redeems nothing. Appends into a
// map index (out[k] = append(out[k], v)) are also exempt — per-key order
// does not depend on iteration order — as are slices declared inside the
// loop body.
//
// No test covers this invariant. Deleting the sort.Strings(ready) that
// orders the roots of Plan.resolve's topological walk (plan.go) fails no
// test: a valid plan has one root, its input node, and no test lays out
// a plan with several. Map order would leak into the first one that does.
// This analyzer flags the deletion.
package detrange

import (
	"go/ast"
	"go/types"

	"seco/internal/lint"
	"seco/internal/lint/inspect"
)

// Analyzer flags nondeterministically ordered slices built from map
// ranges in the plan-producing packages.
var Analyzer = &lint.Analyzer{
	Name:  "detrange",
	Doc:   "flags slices built by appending inside range-over-map without a later sort",
	Scope: []string{"seco/internal/optimizer", "seco/internal/plan"},
	Run:   run,
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc inspects one function body. The whole body doubles as the
// window in which a later sort call redeems an append.
func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if t := pass.Info.Types[rng.X].Type; t == nil {
			return true
		} else if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, target := range mapRangeAppends(pass, rng) {
			obj := identObj(pass, target)
			if obj == nil {
				continue
			}
			if sortedInFunc(pass, body, obj) {
				continue
			}
			pass.Reportf(target.Pos(),
				"appending to %s while ranging over a map yields nondeterministic order; sort it afterwards or range over sorted keys",
				target.Name)
		}
		return true
	})
}

// mapRangeAppends returns the identifiers of outer-scope slices that the
// range body grows via s = append(s, ...).
func mapRangeAppends(pass *lint.Pass, rng *ast.RangeStmt) []*ast.Ident {
	var out []*ast.Ident
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
			return true
		}
		target, ok := assign.Lhs[0].(*ast.Ident)
		if !ok {
			return true // an index expression like out[k] = append(...) carries no order
		}
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok || !inspect.IsBuiltin(pass.Info, call, "append") {
			return true
		}
		obj := identObj(pass, target)
		if obj == nil {
			return true
		}
		// Slices declared inside the loop do not accumulate across
		// iterations, so their order cannot leak the map's.
		if obj.Pos() >= rng.Pos() && obj.Pos() <= rng.End() {
			return true
		}
		out = append(out, target)
		return true
	})
	return out
}

// sorters are the calls that reorder their argument.
var sorters = map[string]bool{
	"sort.Sort": true, "sort.Stable": true, "sort.Slice": true, "sort.SliceStable": true,
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// sortedInFunc reports whether obj is passed (possibly nested inside a
// conversion or composite) to a sorting call anywhere in the function
// body.
func sortedInFunc(pass *lint.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := inspect.Callee(pass.Info, call)
		if fn == nil || fn.Pkg() == nil || !sorters[fn.Pkg().Path()+"."+fn.Name()] {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(an ast.Node) bool {
				if id, ok := an.(*ast.Ident); ok && identObj(pass, id) == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}

// identObj resolves an identifier to its object, whether this mention
// uses or (re)declares it.
func identObj(pass *lint.Pass, id *ast.Ident) types.Object {
	if obj := pass.Info.Uses[id]; obj != nil {
		return obj
	}
	return pass.Info.Defs[id]
}
