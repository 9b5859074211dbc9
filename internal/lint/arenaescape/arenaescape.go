// Package arenaescape enforces the compact runtime's single-owner arena
// rule: a *comb (or its comps component vector) bump-allocated through
// combArena.new or combArena.clone belongs to the operator that owns the
// arena and dies with that operator's Close, so it must never be parked
// anywhere that outlives the operator's control.
//
// Two dataflow passes implement the rule. The escape pass classifies
// every use of an arena-allocated value and flags the contexts that hand
// it to an unbounded lifetime: stores into non-receiver fields, stores
// into package-level variables, channel sends, goroutine captures, and
// composite-literal placement. Receiver-field stores (operator state the
// operator's own Close tears down), returns and plain call arguments
// (ownership flowing up the same operator graph, released before the
// graph's teardown) are the sanctioned idioms and stay silent — except
// that a Close method returning an arena value is flagged, since past
// Close the arena has been released. The pair pass tracks locally
// created arenas: newCombArena paired with release on every path, and no
// comb from new/clone dereferenced after release.
//
// No test covers this invariant. release zeroes the arena's blocks and
// returns them to a process-wide pool, so a comb kept past Close reads
// whatever combination another operator or run carves there next: a
// cross-run aliasing bug that only a particular interleaving exposes,
// which no golden or differential test reproduces on demand.
package arenaescape

import (
	"go/ast"
	"strings"

	"seco/internal/lint"
	"seco/internal/lint/dataflow"
	"seco/internal/lint/inspect"
)

// Analyzer reports arena-allocated combs escaping their owning operator.
var Analyzer = &lint.Analyzer{
	Name:  "arenaescape",
	Doc:   "checks that combArena-allocated combs never outlive their owning operator (no long-lived stores, sends, goroutine captures, or use after release)",
	Scope: []string{"seco/internal/engine"},
	Run:   run,
}

// arenaAlloc reports whether the call allocates from a combArena
// (a.new() or a.clone(c)), returning the receiver expression. The type
// is matched by bare name so corpora can declare local doubles of the
// engine's unexported arena.
func arenaAlloc(pass *lint.Pass, call *ast.CallExpr) (ast.Expr, bool) {
	for _, m := range []string{"new", "clone"} {
		if recv, ok := inspect.MethodOn(pass.Info, call, "", "combArena", m); ok {
			return recv, true
		}
	}
	return nil, false
}

// violating maps each escape class the single-owner rule forbids to the
// phrase used in the diagnostic.
var violating = map[dataflow.EscapeClass]string{
	dataflow.EscapeField:     "stored into a field of another object",
	dataflow.EscapeGlobal:    "stored into a package-level variable",
	dataflow.EscapeChan:      "sent on a channel",
	dataflow.EscapeGoroutine: "captured by a goroutine",
	dataflow.EscapeComposite: "placed into a composite literal",
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, fn := range inspect.Funcs(pass.Info, f) {
			checkEscapes(pass, fn)
			checkLifecycle(pass, fn)
		}
	}
	return nil
}

func checkEscapes(pass *lint.Pass, fn inspect.Func) {
	escapes := dataflow.Classify(pass.Info, fn, func(call *ast.CallExpr) (int, bool) {
		_, ok := arenaAlloc(pass, call)
		return 0, ok
	})
	for _, e := range escapes {
		if phrase, bad := violating[e.Class]; bad {
			pass.Reportf(e.Pos,
				"arena-allocated comb in %s is %s, which can outlive the owning operator's Close and its arena release",
				fn.Name, phrase)
			continue
		}
		if e.Class == dataflow.EscapeReturn && fn.Decl != nil && fn.Decl.Name.Name == "Close" {
			pass.Reportf(e.Pos,
				"arena-allocated comb returned from %s.Close outlives the arena release Close performs", fn.RecvType)
		}
	}
}

// checkLifecycle pairs locally created arenas with their release and
// flags combs dereferenced after it. Arenas stored into operator structs
// escape the function and are out of intra-procedural reach; the graph
// teardown tests cover those.
func checkLifecycle(pass *lint.Pass, fn inspect.Func) {
	dataflow.Track(dataflow.PairSpec{
		Info: pass.Info,
		Acquire: func(call *ast.CallExpr) (int, bool) {
			fnObj := inspect.Callee(pass.Info, call)
			if fnObj != nil && fnObj.Name() == "newCombArena" {
				return 0, true
			}
			return 0, false
		},
		Release: func(call *ast.CallExpr) ast.Expr {
			if recv, ok := inspect.MethodOn(pass.Info, call, "", "combArena", "release"); ok {
				return recv
			}
			return nil
		},
		Derive: func(call *ast.CallExpr) ast.Expr {
			if recv, ok := arenaAlloc(pass, call); ok {
				return recv
			}
			return nil
		},
		// release clears and nils the block lists, so releasing twice is
		// harmless; the single-owner rule cares about use-after, not
		// idempotence.
		AllowDoubleRelease: true,
		Report: func(v dataflow.PairViolation) {
			switch v.Kind {
			case dataflow.MissingRelease:
				pass.Reportf(v.Pos,
					"combArena created in %s is not released on every exit path; its pooled blocks leak from the block pools",
					fn.Name)
			case dataflow.UseAfterRelease:
				what := "combArena"
				if v.Derived {
					what = "comb allocated from a combArena"
				}
				pass.Reportf(v.Pos,
					"%s in %s is used after the arena's release; its memory may already back another operator's combs",
					what, fn.Name)
			case dataflow.OverwriteWhileHeld:
				pass.Reportf(v.Pos,
					"combArena in %s is overwritten while unreleased; its pooled blocks leak from the block pools",
					fn.Name)
			}
		},
	}, fn)
}
