// Command secolint runs the repo's custom static analyzers over a set of
// package patterns, in the manner of go vet with a -vettool:
//
//	secolint ./...                 # run every analyzer in its scope
//	secolint -only wallclock ./... # run a subset everywhere it applies
//	secolint -json ./...           # findings as a JSON array on stdout
//	secolint -list                 # describe the analyzers
//
// Findings print as file:line:col: analyzer: message (or, with -json, as
// a JSON array of {file, line, col, analyzer, message} objects) and make
// the exit status 1; a driver or loading failure exits 2.
//
// The analyzers:
//
//	wallclock   — no time.Now/time.Sleep-style calls outside the
//	              sanctioned clock files (engine Clock, live estimator,
//	              measurement harness)
//	detrange    — no ordered slices built by appending inside a
//	              range-over-map in the plan-producing packages
//	ctxdeadline — no serving-layer or engine Execute/Run/Invoke/Fetch
//	              calls on a context that provably carries no deadline,
//	              which would break end-to-end deadline propagation and
//	              sever the run's trace lane
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"seco/internal/lint"
	"seco/internal/lint/ctxdeadline"
	"seco/internal/lint/detrange"
	"seco/internal/lint/wallclock"
)

// analyzers is the full suite, in the order findings are attributed.
var analyzers = []*lint.Analyzer{
	wallclock.Analyzer,
	detrange.Analyzer,
	ctxdeadline.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("secolint", flag.ContinueOnError)
	fs.SetOutput(errw)
	var (
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all, each in its scope)")
		list    = fs.Bool("list", false, "describe the analyzers and exit")
		jsonOut = fs.Bool("json", false, "emit findings as a JSON array on stdout instead of vet-style lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analyzers {
			scope := "module-wide"
			if len(a.Scope) > 0 {
				scope = strings.Join(a.Scope, ", ")
			}
			fmt.Fprintf(out, "%-11s %s (scope: %s)\n", a.Name, a.Doc, scope)
		}
		return 0
	}
	suite, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(errw, "secolint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(errw, "secolint:", err)
		return 2
	}
	var diags []lint.Diagnostic
	for _, pkg := range pkgs {
		for _, a := range suite {
			if !a.AppliesTo(pkg.PkgPath) {
				continue
			}
			ds, err := lint.Run(a, pkg)
			if err != nil {
				fmt.Fprintln(errw, "secolint:", err)
				return 2
			}
			diags = append(diags, ds...)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	if *jsonOut {
		if err := writeJSON(out, diags); err != nil {
			fmt.Fprintln(errw, "secolint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(out, d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(errw, "secolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// jsonDiagnostic is the stable machine-readable finding shape; the
// GitHub Actions problem matcher in .github/secolint-matcher.json keys
// off the vet-style text form, while tooling that wants structure
// consumes this.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// writeJSON emits the findings as one JSON array. An empty run emits
// [], not null, so consumers can range without a nil check.
func writeJSON(out io.Writer, diags []lint.Diagnostic) error {
	js := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		js = append(js, jsonDiagnostic{
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Col:      d.Pos.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "\t")
	return enc.Encode(js)
}

// selectAnalyzers resolves the -only flag against the suite.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return analyzers, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
