package inspect

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

func check(t *testing.T, src string) (*ast.File, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "src.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	if _, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return f, info
}

const src = `package p
type pool struct{}
func (p *pool) Get() []int { return nil }
func (p *pool) Put(s []int) {}
func helper() {}
func (p *pool) work() {
	s := p.Get()
	f := func() { _ = s }
	f()
	p.Put(s)
}
`

func TestFuncs(t *testing.T) {
	f, _ := check(t, src)
	fns := Funcs(f)
	var names []string
	for _, fn := range fns {
		names = append(names, fn.Name)
	}
	want := []string{"Get", "Put", "helper", "work", "func literal in work"}
	if len(names) != len(want) {
		t.Fatalf("funcs = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("func %d = %q, want %q", i, names[i], want[i])
		}
	}
	// The method carries its receiver type; the literal does not.
	for _, fn := range fns {
		if fn.Name == "work" && fn.RecvType != "pool" {
			t.Errorf("work receiver type = %q, want pool", fn.RecvType)
		}
		if fn.Lit != nil && fn.RecvType != "" {
			t.Errorf("literal %q should not carry a receiver type", fn.Name)
		}
	}
}

func TestMethodOnAndCallee(t *testing.T) {
	f, info := check(t, src)
	var getCalls, putCalls, otherCalls int
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if recv, ok := MethodOn(info, call, "", "pool", "Get"); ok {
			getCalls++
			if recv == nil {
				t.Error("Get receiver expr is nil")
			}
		} else if _, ok := MethodOn(info, call, "", "pool", "Put"); ok {
			putCalls++
		} else {
			otherCalls++
		}
		return true
	})
	if getCalls != 1 || putCalls != 1 {
		t.Errorf("Get/Put calls = %d/%d, want 1/1", getCalls, putCalls)
	}
	// MethodOn with a non-matching package path rejects the local pool.
	ast.Inspect(f, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := MethodOn(info, call, "some/other/pkg", "pool", "Get"); ok {
				t.Error("MethodOn matched a wrong package path")
			}
		}
		return true
	})
}

func TestIsNamed(t *testing.T) {
	f, info := check(t, src)
	var poolType types.Type
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "pool" {
			return true
		}
		poolType = info.Defs[ts.Name].Type()
		return true
	})
	if poolType == nil {
		t.Fatal("pool type not found")
	}
	ptr := types.NewPointer(poolType)
	if !IsNamed(poolType, "", "pool") || !IsNamed(ptr, "", "pool") {
		t.Error("IsNamed failed on pool / *pool with empty package path")
	}
	if !IsNamed(poolType, "p", "pool") {
		t.Error("IsNamed failed on exact package path")
	}
	if IsNamed(poolType, "q", "pool") || IsNamed(poolType, "", "notpool") {
		t.Error("IsNamed matched a wrong package or name")
	}
}
