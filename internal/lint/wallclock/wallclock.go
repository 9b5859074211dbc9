// Package wallclock reports calls that read or block on the machine's
// real clock. The engine's correctness and reproducibility arguments
// assume all timing flows through an injected Clock (internal/engine's
// Clock interface), so direct calls to time.Now, time.Sleep and friends
// are confined to an explicit allowlist: the Clock implementation
// itself, the live service estimator, and the measurement harness.
// Referencing a function as a value (delay = time.Sleep) is normally
// fine — that is exactly how a caller injects real time — only calls are
// flagged. Strict paths are the exception: inside them (the call policy
// of internal/service, whose backoff and cooldown timing must flow
// through the TimeSource it is built with) even a value reference is
// flagged, because stashing time.Sleep in a field is just a deferred
// call. Test files are exempt.
//
// No test covers this invariant. A time.Sleep added to the service
// reader's fetch (op_service.go) fails no test and leaves every golden
// and the experiments output byte-identical: on the virtual clock it
// charges no simulated time, so only real waiting shows.
package wallclock

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strings"

	"seco/internal/lint"
)

// Allowlist holds slash-separated path suffixes whose files may call the
// wall clock directly.
var Allowlist = []string{
	"internal/engine/clock.go",        // the sanctioned Clock implementation
	"internal/service/estimate.go",    // measures live service latency
	"cmd/experiments/measurements.go", // reports real elapsed time to the user
	"internal/serve/server.go",        // serving layer: real ticker drives the background query loop
}

// Strict holds slash-separated path fragments under which even a value
// reference to a banned function is flagged. The call policy lives here:
// retry backoff and breaker cooldowns must route through the TimeSource
// it is built with, so holding time.Sleep as a value is as much of a
// leak as calling it. The engine and the observability layer are strict
// for the same reason — operator deadlines and span timestamps must come
// from the injected Clock, or replayed runs diverge from live ones.
// Allowlisted files (the Clock implementation itself) are exempt before
// strictness is consulted.
var Strict = []string{
	"internal/service/",
	"internal/engine/",
	"internal/obs/",
}

// banned lists the functions in package time that consult the real
// clock when called.
var banned = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"AfterFunc": true,
}

// Analyzer flags direct wall-clock calls outside the allowlist.
var Analyzer = &lint.Analyzer{
	Name: "wallclock",
	Doc:  "flags time.Now/time.Sleep-style calls outside the sanctioned clock files",
	Run:  run,
}

// allowlisted reports whether the file may call the wall clock.
func allowlisted(filename string) bool {
	slashed := filepath.ToSlash(filename)
	for _, suffix := range Allowlist {
		if strings.HasSuffix(slashed, suffix) {
			return true
		}
	}
	return false
}

// strictPath reports whether the file sits in a strict path, where value
// references to the banned functions are flagged too.
func strictPath(filename string) bool {
	slashed := filepath.ToSlash(filename)
	for _, frag := range Strict {
		if strings.Contains(slashed, frag) {
			return true
		}
	}
	return false
}

// bannedFunc resolves a selector to a banned package-level time function,
// or returns nil. Methods like (time.Time).After compare instants already
// in hand; only the package-level functions consult the clock.
func bannedFunc(pass *lint.Pass, sel *ast.SelectorExpr) *types.Func {
	obj, ok := pass.Info.Uses[sel.Sel]
	if !ok {
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || !banned[fn.Name()] {
		return nil
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return nil
	}
	return fn
}

func run(pass *lint.Pass) error {
	for _, f := range pass.Files {
		name := pass.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") || allowlisted(name) {
			continue
		}
		strict := strictPath(name)

		// Selectors appearing as the function of a call are reported as
		// calls; anything else is a value reference, reported only in
		// strict paths.
		calls := map[ast.Expr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				calls[call.Fun] = true
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := bannedFunc(pass, sel)
			if fn == nil {
				return true
			}
			switch {
			case calls[sel]:
				pass.Reportf(sel.Pos(),
					"call to time.%s reads the wall clock; inject a Clock (see internal/engine/clock.go) instead",
					fn.Name())
			case strict:
				pass.Reportf(sel.Pos(),
					"reference to time.%s in a strict path smuggles the wall clock; route timing through the TimeSource the layer is built with",
					fn.Name())
			}
			return true
		})
	}
	return nil
}
