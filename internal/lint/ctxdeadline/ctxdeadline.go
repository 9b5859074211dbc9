// Package ctxdeadline reports engine and service calls whose context
// provably carries no deadline, in the serving layer and in the engine.
// Two properties ride on the context a call receives:
//
//   - The deadline. The overload story of cmd/secoserve depends on
//     end-to-end deadline propagation: the admission controller grants
//     each request a budget, the handler turns it into a context
//     deadline, and every Execute/Run/Invoke/Fetch below inherits it so a
//     wedged upstream cannot hold a request slot forever. The check
//     caught the serving layer's background refresh (Server.RunOnce)
//     executing on an unbounded context.Background(); it now runs under
//     context.WithTimeout.
//   - The trace lane. Operators reach the service layer through contexts
//     carrying their obs.Scope, and the invoker and the resilience
//     middleware read it back to emit spans into the operator's lane. An
//     engine Invoke/Fetch on a fresh context.Background()/TODO() runs, but
//     its spans, retries and breaker transitions vanish from the trace.
//
// A call site that passes context.Background(), context.TODO() or a bare
// (*http.Request).Context() — none of which carry a deadline or a trace
// scope — silently opts out of both.
//
// The analysis is intraprocedural and deliberately one-sided: it flags
// only contexts that provably lack a deadline, tracing local variables
// through the deadline-preserving derivations (context.WithCancel,
// context.WithValue and the service layer's With* budget hooks) back to
// a deadline-less root. A context parameter of unknown provenance is
// never flagged — the caller may well have attached a deadline — so the
// check has no false positives at function boundaries.
package ctxdeadline

import (
	"go/ast"
	"go/types"
	"strings"

	"seco/internal/lint"
	"seco/internal/lint/inspect"
)

// Analyzer flags Execute/Run/Invoke/Fetch calls on deadline-less contexts in
// the serving layer and the engine.
var Analyzer = &lint.Analyzer{
	Name: "ctxdeadline",
	Doc:  "flags serving-layer and engine Execute/Run/Invoke/Fetch calls whose context provably carries no deadline, breaking end-to-end deadline propagation and the run's trace lane",
	Scope: []string{
		"seco/cmd/secoserve",
		"seco/internal/engine",
		"seco/internal/serve",
	},
	Run: run,
}

// sinks names the context-first entry points that must inherit the
// request deadline: the engine's Execute and a prepared plan's Run, and
// the service layer's Invoke and Fetch.
var sinks = map[string]bool{"Execute": true, "Run": true, "Invoke": true, "Fetch": true}

// state is the deadline lattice of a context expression.
type state int

const (
	unknown  state = iota // provenance not visible in this function
	deadline              // provably carries a deadline
	bare                  // provably deadline-less
)

// join merges two definitions of the same variable: agreement is kept,
// disagreement (and anything involving unknown) degrades to unknown, so
// only variables that are deadline-less on every path are flagged.
func join(a, b state) state {
	if a == b {
		return a
	}
	return unknown
}

// tracker resolves context expressions to lattice states within one
// file, with variable states computed to a fixed point across all
// assignments (per *types.Var, so shadowing and nested function
// literals resolve correctly).
type tracker struct {
	pass *lint.Pass
	vars map[*types.Var]state
	// roots remembers, for reporting, which deadline-less constructor a
	// bare variable traces back to.
	roots map[*types.Var]string
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		tr := &tracker{pass: pass,
			vars:  map[*types.Var]state{},
			roots: map[*types.Var]string{}}
		tr.solve(f)
		tr.report(f)
	}
	return nil
}

// solve iterates the file's context assignments to a fixed point. The
// lattice has height two, so a handful of passes settles any chain of
// derivations regardless of source order.
func (t *tracker) solve(f *ast.File) {
	for i := 0; i < 4; i++ {
		changed := false
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				return true
			}
			// Both `ctx := expr` and `ctx, cancel := context.WithX(...)`
			// bind the context in position 0.
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			v := t.objOf(id)
			if v == nil || !isContext(v.Type()) {
				return true
			}
			st, root := t.classify(as.Rhs[0])
			old, seen := t.vars[v]
			if seen {
				st = join(old, st)
			}
			if st != old || !seen {
				t.vars[v] = st
				t.roots[v] = root
				changed = true
			}
			return true
		})
		if !changed {
			return
		}
	}
}

// report flags every sink call whose context argument is provably bare.
func (t *tracker) report(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		fn := inspect.Callee(t.pass.Info, call)
		if fn == nil || !sinks[fn.Name()] || !firstParamIsContext(fn) {
			return true
		}
		if st, root := t.classify(call.Args[0]); st == bare {
			t.pass.Reportf(call.Pos(),
				"%s called with a deadline-less context (%s): derive it from the request context (context.WithTimeout on the admitted budget at the serving edge) so the deadline and the run's trace lane propagate end to end",
				types.ExprString(call.Fun), root)
		}
		return true
	})
}

// classify resolves a context expression to its lattice state and, for
// bare contexts, the name of the deadline-less root it traces to.
func (t *tracker) classify(e ast.Expr) (state, string) {
	switch e := e.(type) {
	case *ast.ParenExpr:
		return t.classify(e.X)
	case *ast.Ident:
		if v := t.objOf(e); v != nil {
			return t.vars[v], t.roots[v]
		}
		return unknown, ""
	case *ast.CallExpr:
		return t.classifyCall(e)
	}
	return unknown, ""
}

// classifyCall resolves a call expression producing a context.
func (t *tracker) classifyCall(call *ast.CallExpr) (state, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return unknown, ""
	}
	fn, ok := t.pass.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return unknown, ""
	}
	switch fn.Pkg().Path() {
	case "context":
		switch fn.Name() {
		case "Background", "TODO":
			return bare, "context." + fn.Name()
		case "WithTimeout", "WithDeadline":
			return deadline, ""
		case "WithCancel", "WithValue", "WithoutCancel":
			// Deadline-preserving derivations (WithoutCancel keeps the
			// deadline too; only the cancel edge is severed).
			if len(call.Args) > 0 {
				return t.classify(call.Args[0])
			}
		}
	case "net/http":
		// (*http.Request).Context() is deadline-less unless the server
		// sets timeouts the analysis cannot see; the serving layer must
		// wrap it with the admitted budget rather than pass it through.
		if _, ok := inspect.MethodOn(t.pass.Info, call, "net/http", "Request", "Context"); ok {
			return bare, "http.Request.Context"
		}
	default:
		// The service layer's context hooks (WithBudget, …) decorate a
		// parent without touching its deadline.
		if strings.HasSuffix(fn.Pkg().Path(), "internal/service") &&
			strings.HasPrefix(fn.Name(), "With") && len(call.Args) > 0 {
			return t.classify(call.Args[0])
		}
	}
	return unknown, ""
}

// objOf resolves an identifier to the variable it defines or uses.
func (t *tracker) objOf(id *ast.Ident) *types.Var {
	if v, ok := t.pass.Info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := t.pass.Info.Uses[id].(*types.Var)
	return v
}

// isContext reports whether the type is context.Context.
func isContext(typ types.Type) bool { return inspect.IsNamed(typ, "context", "Context") }

// firstParamIsContext reports whether fn's first parameter is a
// context.Context.
func firstParamIsContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Params().Len() == 0 {
		return false
	}
	return isContext(sig.Params().At(0).Type())
}
