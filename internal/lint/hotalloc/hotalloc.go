// Package hotalloc reports per-combination allocations inside the
// operator runtime's hot loop. The compact-runtime rework moved the
// engine's Next paths onto slot-indexed component vectors and pooled
// buffers precisely so that no alias map is built and no string is
// formatted per pulled combination; this analyzer keeps those two
// regressions from creeping back. Inside any method named Next it flags:
//
//   - composite literals whose underlying type is map[string]types.Value
//     (including named map forms) — the per-tuple alias and binding maps
//     the slot layout replaced;
//   - make calls producing such a map;
//   - calls to fmt.Sprintf — formatting belongs at compile time or at the
//     materialization boundary, not in the per-pull loop.
//
// Test files are exempt, as are allocations in Open/Close and other
// non-Next methods: setup-time allocation is not the hot path.
package hotalloc

import (
	"go/ast"
	"go/types"
	"strings"

	"seco/internal/lint"
)

// Analyzer flags per-combination allocations in operator Next methods.
var Analyzer = &lint.Analyzer{
	Name:  "hotalloc",
	Doc:   "flags map[string]types.Value literals/makes and fmt.Sprintf inside operator Next methods",
	Scope: []string{"seco/internal/engine"},
	Run:   run,
}

// isValueMap reports whether t's underlying type is a map from string to
// the types package's Value — the shape of alias-component and input
// binding maps.
func isValueMap(t types.Type) bool {
	if t == nil {
		return false
	}
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	k, ok := m.Key().Underlying().(*types.Basic)
	if !ok || k.Kind() != types.String {
		return false
	}
	named, ok := m.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Value" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/types")
}

// isSprintf resolves a call's function to fmt.Sprintf.
func isSprintf(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fn.Name() == "Sprintf"
}

// recvName renders the receiver type of a method declaration for the
// diagnostic ("(*serviceOp)" → "serviceOp").
func recvName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return "?"
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "Next" || fd.Body == nil {
				continue
			}
			recv := recvName(fd)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.CompositeLit:
					if isValueMap(pass.Info.Types[ast.Expr(e)].Type) {
						pass.Reportf(e.Pos(),
							"map[string]types.Value literal in %s.Next allocates per pulled combination; index by compiled slot layout instead",
							recv)
					}
				case *ast.CallExpr:
					if id, ok := e.Fun.(*ast.Ident); ok && id.Name == "make" && len(e.Args) > 0 {
						_, builtin := pass.Info.Uses[id].(*types.Builtin)
						if builtin && isValueMap(pass.Info.Types[e.Args[0]].Type) {
							pass.Reportf(e.Pos(),
								"make of map[string]types.Value in %s.Next allocates per pulled combination; index by compiled slot layout instead",
								recv)
						}
					}
					if isSprintf(pass, e) {
						pass.Reportf(e.Pos(),
							"fmt.Sprintf in %s.Next formats on the per-pull hot path; precompute at compile time or defer to the materialization boundary",
							recv)
					}
				}
				return true
			})
		}
	}
	return nil
}
