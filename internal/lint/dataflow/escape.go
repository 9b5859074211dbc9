// Package dataflow is the function-body analysis layer under the repo's
// ownership-aware analyzers. It provides two building blocks, both
// intra-procedural and stdlib-only:
//
//   - an escape lattice (Classify): given seed expressions producing an
//     owned value, the set of local variables carrying that value and
//     how each use lets the value outlive the function — stored to a
//     field or global, returned, sent to a channel, captured by a
//     goroutine;
//   - a path-sensitive pair tracker (Track): acquire/release protocols
//     (pool get/put, arena new/release) checked along every control-flow
//     path, flagging resources that miss their release on some exit, are
//     used after release, released twice, or overwritten while held.
//
// Analyzers configure these with their API shapes (what acquires, what
// releases, what counts as a benign use) and turn the results into
// diagnostics.
package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"seco/internal/lint/inspect"
)

// EscapeClass is the lattice of ways a function-local value can outlive
// (or stay inside) the frame that produced it. The classes are ordered
// only informally; analyzers decide which classes violate their
// ownership rule (a pool buffer may be returned, an arena comb must not
// be sent to a channel, and so on).
type EscapeClass uint8

const (
	// EscapeNone: every use keeps the value local to the function.
	EscapeNone EscapeClass = iota
	// EscapeRecvField: stored into a field of the method receiver. The
	// value lives exactly as long as the receiver — for operator state
	// torn down by the operator's own Close this is the sanctioned way
	// to hold a value across calls.
	EscapeRecvField
	// EscapeField: stored into a field of some other object, whose
	// lifetime the function cannot see.
	EscapeField
	// EscapeGlobal: stored into a package-level variable.
	EscapeGlobal
	// EscapeReturn: returned to the caller (ownership transfer).
	EscapeReturn
	// EscapeChan: sent on a channel — the receiving goroutine may hold
	// the value past any local lifetime.
	EscapeChan
	// EscapeGoroutine: captured by a go-launched closure or passed to a
	// go-launched call.
	EscapeGoroutine
	// EscapeArg: passed to another function (conservatively treated as
	// an ownership transfer).
	EscapeArg
	// EscapeComposite: placed into a composite literal, whose home the
	// function may or may not control.
	EscapeComposite
)

// String names the class for diagnostics.
func (c EscapeClass) String() string {
	switch c {
	case EscapeNone:
		return "local"
	case EscapeRecvField:
		return "receiver field"
	case EscapeField:
		return "field"
	case EscapeGlobal:
		return "package-level variable"
	case EscapeReturn:
		return "return"
	case EscapeChan:
		return "channel send"
	case EscapeGoroutine:
		return "goroutine capture"
	case EscapeArg:
		return "call argument"
	case EscapeComposite:
		return "composite literal"
	default:
		return "?"
	}
}

// Escape is one way a tracked value leaves the function.
type Escape struct {
	Class EscapeClass
	// Pos is the escaping use.
	Pos token.Pos
	// Seed is the originating source call.
	Seed token.Pos
}

// Classify finds every escape of values produced by the seed calls in
// the function body. match reports whether a call produces a tracked
// value and at which result index. Tracking propagates through local
// variables: direct bindings, re-slicings, dereferences, type
// assertions, indexing and append chains all carry the taint.
func Classify(info *types.Info, fn inspect.Func, match func(*ast.CallExpr) (int, bool)) []Escape {
	t := &escTracker{
		info:    info,
		fn:      fn,
		match:   match,
		parents: inspect.Parents(fn.Body),
		seedOf:  map[*types.Var]token.Pos{},
		seeds:   map[*ast.CallExpr]int{},
	}
	t.collectSeeds()
	t.propagate()
	return t.classify()
}

type escTracker struct {
	info    *types.Info
	fn      inspect.Func
	match   func(*ast.CallExpr) (int, bool)
	parents map[ast.Node]ast.Node

	// seeds maps each source call to its tracked result index.
	seeds map[*ast.CallExpr]int
	// seedOf maps each tainted local variable to the source position it
	// derives from.
	seedOf map[*types.Var]token.Pos
}

// inNestedFunc reports whether n sits inside a function literal nested
// in the analyzed body (literal bodies are analyzed as their own Func).
func (t *escTracker) inNestedFunc(n ast.Node) bool {
	for p := t.parents[n]; p != nil; p = t.parents[p] {
		if _, ok := p.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

func (t *escTracker) collectSeeds() {
	ast.Inspect(t.fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && !t.inNestedFunc(call) {
			if idx, ok := t.match(call); ok {
				t.seeds[call] = idx
			}
		}
		return true
	})
}

// taintFrom returns the seed position an expression derives from, or
// token.NoPos. Derivation looks through parens, slicing, indexing,
// dereference, address-of, type assertions and append.
func (t *escTracker) taintFrom(e ast.Expr) token.Pos {
	switch e := e.(type) {
	case *ast.Ident:
		if v := inspect.LocalVar(t.info, e); v != nil {
			if pos, ok := t.seedOf[v]; ok {
				return pos
			}
		}
	case *ast.CallExpr:
		if _, ok := t.seeds[e]; ok {
			return e.Pos()
		}
		if inspect.IsBuiltin(t.info, e, "append") && len(e.Args) > 0 {
			return t.taintFrom(e.Args[0])
		}
	case *ast.ParenExpr:
		return t.taintFrom(e.X)
	case *ast.SliceExpr:
		return t.taintFrom(e.X)
	case *ast.IndexExpr:
		return t.taintFrom(e.X)
	case *ast.SelectorExpr:
		// A field read of a tracked value (a comb's comps vector) shares
		// the owner's lifetime.
		if sel, ok := t.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return t.taintFrom(e.X)
		}
	case *ast.StarExpr:
		return t.taintFrom(e.X)
	case *ast.TypeAssertExpr:
		return t.taintFrom(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return t.taintFrom(e.X)
		}
	}
	return token.NoPos
}

// propagate taints local variables assigned from tainted expressions,
// iterating to a fixpoint (chains like b := a; c := b).
func (t *escTracker) propagate() {
	for changed := true; changed; {
		changed = false
		ast.Inspect(t.fn.Body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.AssignStmt:
				if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
					// Multi-value bind: only the matched result index of a
					// seed call carries the value.
					call, ok := ast.Unparen(s.Rhs[0]).(*ast.CallExpr)
					if !ok {
						return true
					}
					idx, ok := t.seeds[call]
					if !ok || idx >= len(s.Lhs) {
						return true
					}
					changed = t.taintLHS(s.Lhs[idx], call.Pos()) || changed
					return true
				}
				for i, lhs := range s.Lhs {
					if i < len(s.Rhs) {
						if pos := t.taintFrom(s.Rhs[i]); pos != token.NoPos {
							changed = t.taintLHS(lhs, pos) || changed
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range s.Names {
					if i < len(s.Values) {
						if pos := t.taintFrom(s.Values[i]); pos != token.NoPos {
							changed = t.taintLHS(name, pos) || changed
						}
					}
				}
			}
			return true
		})
	}
}

func (t *escTracker) taintLHS(lhs ast.Expr, seed token.Pos) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	v := inspect.LocalVar(t.info, id)
	if v == nil {
		return false
	}
	if _, ok := t.seedOf[v]; ok {
		return false
	}
	t.seedOf[v] = seed
	return true
}

// classify walks every tainted occurrence (seed calls and tainted
// variable uses) and records how its context lets the value escape.
func (t *escTracker) classify() []Escape {
	var out []Escape
	ast.Inspect(t.fn.Body, func(n ast.Node) bool {
		var seed token.Pos
		switch e := n.(type) {
		case *ast.CallExpr:
			if _, ok := t.seeds[e]; ok {
				seed = e.Pos()
			}
		case *ast.Ident:
			if v := inspect.LocalVar(t.info, e); v != nil {
				if pos, ok := t.seedOf[v]; ok {
					seed = pos
				}
			}
		}
		if seed == token.NoPos {
			return true
		}
		if cls, pos := t.context(n); cls != EscapeNone {
			out = append(out, Escape{Class: cls, Pos: pos, Seed: seed})
		}
		return true
	})
	return out
}

// context classifies the syntactic context of a tainted occurrence.
func (t *escTracker) context(n ast.Node) (EscapeClass, token.Pos) {
	// A tainted value referenced anywhere inside a go-launched closure
	// escapes to that goroutine (when the value is declared outside it).
	if goStmt := t.enclosingGo(n); goStmt != nil {
		return EscapeGoroutine, n.Pos()
	}
	child := n
	for p := t.parents[child]; p != nil; child, p = p, t.parents[p] {
		switch pp := p.(type) {
		case *ast.ParenExpr, *ast.SliceExpr, *ast.StarExpr, *ast.TypeAssertExpr:
			continue // value flows through unchanged
		case *ast.SelectorExpr:
			// A field read carries the owner's lifetime out with it; a
			// method call on the value is classified at the CallExpr.
			if sel, ok := t.info.Selections[pp]; ok && sel.Kind() == types.FieldVal && pp.X == child {
				continue
			}
			return EscapeNone, 0
		case *ast.IndexExpr:
			if pp.X == child {
				continue // element of a tainted container stays tainted
			}
			return EscapeNone, 0
		case *ast.UnaryExpr:
			if pp.Op == token.AND {
				continue
			}
			return EscapeNone, 0
		case *ast.KeyValueExpr:
			if pp.Value == child {
				continue // classified by the enclosing composite literal
			}
			return EscapeNone, 0
		case *ast.CompositeLit:
			return EscapeComposite, child.Pos()
		case *ast.SendStmt:
			if pp.Value == child {
				return EscapeChan, pp.Pos()
			}
			return EscapeNone, 0
		case *ast.ReturnStmt:
			return EscapeReturn, pp.Pos()
		case *ast.CallExpr:
			if pp.Fun == child {
				return EscapeNone, 0 // calling a method on it, not passing it
			}
			if inspect.IsBuiltin(t.info, pp, "append") ||
				inspect.IsBuiltin(t.info, pp, "len") ||
				inspect.IsBuiltin(t.info, pp, "cap") ||
				inspect.IsBuiltin(t.info, pp, "copy") ||
				inspect.IsBuiltin(t.info, pp, "clear") ||
				inspect.IsBuiltin(t.info, pp, "delete") {
				return EscapeNone, 0
			}
			if _, isGo := t.parents[pp].(*ast.GoStmt); isGo {
				return EscapeGoroutine, child.Pos()
			}
			return EscapeArg, child.Pos()
		case *ast.AssignStmt:
			return t.classifyStore(pp, child)
		default:
			return EscapeNone, 0
		}
	}
	return EscapeNone, 0
}

// enclosingGo returns the go statement whose closure contains n, if any.
func (t *escTracker) enclosingGo(n ast.Node) *ast.GoStmt {
	for p := t.parents[n]; p != nil; p = t.parents[p] {
		if lit, ok := p.(*ast.FuncLit); ok {
			if g, ok := t.parents[lit].(*ast.CallExpr); ok {
				if goStmt, ok := t.parents[g].(*ast.GoStmt); ok && g.Fun == lit {
					return goStmt
				}
			}
			return nil // plain closure: handled as a normal context
		}
	}
	return nil
}

// classifyStore classifies an assignment whose right side carries the
// tainted value, by the shape of the corresponding left side.
func (t *escTracker) classifyStore(s *ast.AssignStmt, rhs ast.Node) (EscapeClass, token.Pos) {
	idx := -1
	for i, r := range s.Rhs {
		if r == rhs {
			idx = i
		}
	}
	if idx < 0 {
		return EscapeNone, 0
	}
	var lhs ast.Expr
	switch {
	case len(s.Lhs) == len(s.Rhs):
		lhs = s.Lhs[idx]
	case len(s.Rhs) == 1 && len(s.Lhs) > 0:
		lhs = s.Lhs[0]
	default:
		return EscapeNone, 0
	}
	return t.classifyTarget(lhs)
}

func (t *escTracker) classifyTarget(lhs ast.Expr) (EscapeClass, token.Pos) {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if inspect.LocalVar(t.info, l) != nil {
			return EscapeNone, 0 // propagation, not an escape
		}
		if obj, ok := t.info.Uses[l].(*types.Var); ok && !obj.IsField() &&
			obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return EscapeGlobal, l.Pos()
		}
		return EscapeNone, 0
	case *ast.SelectorExpr:
		// Field store: receiver fields are the operator-state idiom,
		// anything else has an unknown lifetime.
		if sel, ok := t.info.Selections[l]; ok && sel.Kind() == types.FieldVal {
			if base, ok := ast.Unparen(l.X).(*ast.Ident); ok && t.fn.Recv != nil {
				if v := inspect.LocalVar(t.info, base); v == t.fn.Recv {
					return EscapeRecvField, l.Pos()
				}
			}
			return EscapeField, l.Pos()
		}
		// Qualified package-level variable (pkg.Var).
		if obj, ok := t.info.Uses[l.Sel].(*types.Var); ok && !obj.IsField() {
			return EscapeGlobal, l.Pos()
		}
		return EscapeNone, 0
	case *ast.IndexExpr:
		return t.classifyTarget(l.X)
	case *ast.StarExpr:
		return t.classifyTarget(l.X)
	default:
		return EscapeNone, 0
	}
}
