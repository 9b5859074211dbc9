// Package inspect is the shared traversal and resolution layer under the
// repo's types-aware analyzers. It factors out the walking every analyzer
// repeats: enumerating function bodies (declarations and literals, with
// their receiver type), resolving call expressions to their static
// callees, and classifying named types. Nothing here reports diagnostics.
package inspect

import (
	"go/ast"
	"go/types"
	"strings"
)

// Func is one function body found in a file: a declaration or a function
// literal. Literals carry the enclosing declaration's name for reporting.
type Func struct {
	// Decl is the enclosing declaration; nil for a literal at file scope
	// (package-level var initializer).
	Decl *ast.FuncDecl
	// Lit is non-nil when the body belongs to a function literal.
	Lit *ast.FuncLit
	// Name is the declaration name, or "func literal in <name>".
	Name string
	// RecvType is the bare receiver type name ("serviceOp"), "" otherwise.
	RecvType string
	Body     *ast.BlockStmt
}

// Funcs enumerates every function body in the file in source order:
// each declaration, then each literal nested anywhere inside it (literals
// are returned as their own Func so analyses stay one body deep — a
// literal's body is not re-walked as part of its enclosure).
func Funcs(f *ast.File) []Func {
	var out []Func
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		fn := Func{Decl: fd, Name: fd.Name.Name, Body: fd.Body}
		fn.RecvType = RecvTypeName(fd)
		out = append(out, fn)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				out = append(out, Func{
					Decl: fd,
					Lit:  lit,
					Name: "func literal in " + fd.Name.Name,
					Body: lit.Body,
				})
			}
			return true
		})
	}
	return out
}

// RecvTypeName returns the bare name of a method declaration's receiver
// type ("(*serviceOp)" → "serviceOp"), or "" for plain functions.
func RecvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// Callee resolves a call expression to its statically-known function or
// method object, or nil (calls through function values, builtins).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsBuiltin reports whether the call invokes the named builtin.
func IsBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, builtin := info.Uses[id].(*types.Builtin)
	return builtin
}

// NamedType unwraps pointers and aliases down to the *types.Named core of
// a type, or nil.
func NamedType(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(u)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}

// IsNamed reports whether t (through pointers) is the named type `name`
// declared in a package whose import path equals pkgPath or ends with
// "/"+pkgPath. An empty pkgPath matches any package, which is how the
// testdata corpora stand in local doubles for the engine's unexported
// types.
func IsNamed(t types.Type, pkgPath, name string) bool {
	named := NamedType(t)
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name {
		return false
	}
	if pkgPath == "" {
		return true
	}
	if obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// MethodOn reports whether the call is a method call with the given name
// on a receiver satisfying IsNamed(recv, pkgPath, typeName), returning
// the receiver expression.
func MethodOn(info *types.Info, call *ast.CallExpr, pkgPath, typeName, method string) (ast.Expr, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return nil, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return nil, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, false
	}
	if !IsNamed(sig.Recv().Type(), pkgPath, typeName) {
		return nil, false
	}
	return sel.X, true
}
