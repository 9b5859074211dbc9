// Package poolpair verifies the engine's pooled-buffer protocol: a
// buffer taken from a sync.Pool — directly through Pool.Get or through
// the compact runtime's getCombSlice/getTupleSlice helpers — must reach
// its matching put on every exit path of the function that acquired it,
// and must not be touched after it has been returned.
//
// The check is the dataflow package's path-sensitive pair tracker, run
// per function body. Ownership transfers are allowed and end the local
// obligation: storing the buffer into a struct field (the operator-state
// idiom, paired with a put in Close), returning it, passing it to
// another function, or handing it to a goroutine all mark the buffer
// escaped. What remains — a buffer that is provably still held on some
// exit, used or re-acquired after its put, put twice, or dropped on the
// floor at the acquire site — is reported.
//
// The check earns its place by what it caught when first run over the
// engine: the slice-pool getters in compact.go abandoned the pooled
// buffer whenever the size hint forced a fresh allocation, and the pipe
// reader dropped its lazily acquired comb buffer on a mid-loop error
// return. Neither leak changed a result, so no test had seen them.
package poolpair

import (
	"go/ast"
	"go/token"
	"strings"

	"seco/internal/lint"
	"seco/internal/lint/dataflow"
	"seco/internal/lint/inspect"
)

// Analyzer reports pooled buffers that miss their put or are used after it.
var Analyzer = &lint.Analyzer{
	Name:  "poolpair",
	Doc:   "checks that sync.Pool buffers (Pool.Get, getCombSlice/getTupleSlice) reach their put on every path and are never used afterwards",
	Scope: []string{"seco/internal/engine"},
	Run:   run,
}

// getHelpers and putHelpers are the compact runtime's pooled-buffer
// wrappers, matched by name so the testdata corpora can declare local
// doubles.
var getHelpers = map[string]bool{"getCombSlice": true, "getTupleSlice": true}
var putHelpers = map[string]bool{"putCombSlice": true, "putTupleSlice": true}

// acquireName resolves a call to the pool-acquire API it invokes, if any.
func acquireName(pass *lint.Pass, call *ast.CallExpr) (string, bool) {
	if _, ok := inspect.MethodOn(pass.Info, call, "sync", "Pool", "Get"); ok {
		return "sync.Pool.Get", true
	}
	if fn := inspect.Callee(pass.Info, call); fn != nil && getHelpers[fn.Name()] {
		return fn.Name(), true
	}
	return "", false
}

// releaseExpr resolves a call to the expression it returns to a pool.
func releaseExpr(pass *lint.Pass, call *ast.CallExpr) ast.Expr {
	if _, ok := inspect.MethodOn(pass.Info, call, "sync", "Pool", "Put"); ok && len(call.Args) == 1 {
		return call.Args[0]
	}
	if fn := inspect.Callee(pass.Info, call); fn != nil && putHelpers[fn.Name()] && len(call.Args) == 1 {
		return call.Args[0]
	}
	return nil
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, fn := range inspect.Funcs(pass.Info, f) {
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *lint.Pass, fn inspect.Func) {
	// acquiredBy renders the API behind an acquire position for messages.
	acquiredBy := map[token.Pos]string{}
	apiAt := func(pos token.Pos) string {
		if name, ok := acquiredBy[pos]; ok {
			return name
		}
		return "pool"
	}
	dataflow.Track(dataflow.PairSpec{
		Info: pass.Info,
		Acquire: func(call *ast.CallExpr) (int, bool) {
			name, ok := acquireName(pass, call)
			if ok {
				acquiredBy[call.Pos()] = name
			}
			return 0, ok
		},
		Release: func(call *ast.CallExpr) ast.Expr {
			return releaseExpr(pass, call)
		},
		Report: func(v dataflow.PairViolation) {
			api := apiAt(v.Acquire)
			switch v.Kind {
			case dataflow.MissingRelease:
				pass.Reportf(v.Pos,
					"pooled buffer from %s in %s does not reach its put on every exit path",
					api, fn.Name)
			case dataflow.UseAfterRelease:
				pass.Reportf(v.Pos,
					"pooled buffer from %s in %s is used after being returned to the pool",
					api, fn.Name)
			case dataflow.DoubleRelease:
				pass.Reportf(v.Pos,
					"pooled buffer from %s in %s is returned to the pool twice on one path",
					api, fn.Name)
			case dataflow.OverwriteWhileHeld:
				pass.Reportf(v.Pos,
					"pooled buffer from %s in %s is overwritten while still held; the pooled backing array is abandoned instead of put back",
					api, fn.Name)
			case dataflow.DroppedAcquire:
				pass.Reportf(v.Pos,
					"result of %s in %s is discarded; the pooled buffer can never be put back",
					api, fn.Name)
			}
		},
	}, fn)
}
