// Package interneq keeps the engine's hot-path equality on interned
// handles. The types package interns hot string values process-wide so
// that Value.Equal, Value.Compare and Op.Eval compare one integer
// instead of walking bytes; a hot path that extracts the raw string
// (Value.Str, Value.String) and compares it with == / != or
// strings.Compare throws that away and silently reverts the engine's
// dominant comparison to byte-wise work.
//
// The analyzer flags raw-string comparisons whose operand is a
// Str()/String() call on an internal/types Value inside hot-path
// functions: operator Next methods, other methods of operator types
// (receiver named *Op), and the predicate/composition helpers that take
// combs. Comparisons against string literals are exempt — a literal has
// no handle to compare — as is everything outside the hot set (boundary
// materialization, error formatting).
//
// No test covers this invariant: a raw-string comparison returns the same
// answer as the handle comparison, so every golden and differential test
// still passes and only the cost of the comparison moves.
package interneq

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"seco/internal/lint"
	"seco/internal/lint/inspect"
)

// Analyzer reports raw-string equality on interned values in hot paths.
var Analyzer = &lint.Analyzer{
	Name:  "interneq",
	Doc:   "flags string ==/!=/strings.Compare over Value.Str()/String() in operator Next and predicate hot paths; interned handles (Value.Equal/Compare) are the hot-path comparison",
	Scope: []string{"seco/internal/engine"},
	Run:   run,
}

// hotFunc reports whether the function body is on the per-combination
// hot path: a Next method, any method of an operator type (named *Op),
// or a function with a comb (or comb-slice) parameter — the shape of the
// predicate and composition helpers.
func hotFunc(pass *lint.Pass, fn inspect.Func) bool {
	if fn.Decl == nil {
		return false
	}
	if fn.Decl.Name.Name == "Next" && fn.Decl.Recv != nil {
		return true
	}
	if strings.HasSuffix(fn.RecvType, "Op") {
		return true
	}
	if fn.Lit == nil && fn.Decl.Type.Params != nil {
		for _, field := range fn.Decl.Type.Params.List {
			if tv, ok := pass.Info.Types[field.Type]; ok && mentionsComb(tv.Type) {
				return true
			}
		}
	}
	return false
}

// mentionsComb reports whether t involves the engine's comb type
// (through pointers and slices), matched by name for corpus doubles.
func mentionsComb(t types.Type) bool {
	switch u := t.(type) {
	case *types.Pointer:
		return mentionsComb(u.Elem())
	case *types.Slice:
		return mentionsComb(u.Elem())
	default:
		return inspect.IsNamed(t, "", "comb")
	}
}

// rawStringCall reports whether e is a Str()/String() call on an
// internal/types Value.
func rawStringCall(pass *lint.Pass, e ast.Expr) (string, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return "", false
	}
	for _, m := range []string{"Str", "String"} {
		if _, ok := inspect.MethodOn(pass.Info, call, "internal/types", "Value", m); ok {
			return "Value." + m, true
		}
	}
	return "", false
}

// isStringLiteral reports whether e is a basic string literal (possibly
// parenthesized); literals have no interned handle to compare against.
func isStringLiteral(e ast.Expr) bool {
	lit, ok := ast.Unparen(e).(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// isStringsCompare resolves a call to strings.Compare or
// strings.EqualFold.
func isStringsCompare(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	fn := inspect.Callee(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "strings" {
		return "", false
	}
	if fn.Name() == "Compare" || fn.Name() == "EqualFold" {
		return "strings." + fn.Name(), true
	}
	return "", false
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, fn := range inspect.Funcs(f) {
			// Declarations only: a declaration's walk already covers its
			// nested literals, so visiting them again would double-report.
			if fn.Lit != nil || !hotFunc(pass, fn) {
				continue
			}
			checkBody(pass, fn)
		}
	}
	return nil
}

func checkBody(pass *lint.Pass, fn inspect.Func) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.BinaryExpr:
			if e.Op != token.EQL && e.Op != token.NEQ {
				return true
			}
			for _, pair := range [][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
				if m, ok := rawStringCall(pass, pair[0]); ok && !isStringLiteral(pair[1]) {
					pass.Reportf(e.Pos(),
						"raw string %s on %s result in hot path %s; compare interned handles with Value.Equal instead",
						e.Op, m, fn.Name)
					break
				}
			}
		case *ast.CallExpr:
			name, ok := isStringsCompare(pass, e)
			if !ok {
				return true
			}
			for _, arg := range e.Args {
				if m, ok := rawStringCall(pass, arg); ok {
					pass.Reportf(e.Pos(),
						"%s over %s result in hot path %s; compare interned handles with Value.Compare instead",
						name, m, fn.Name)
					break
				}
			}
		}
		return true
	})
}
