package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
)

// selfcheck runs the end-to-end suite twice on this binary and compares
// every (workload, metric) pair with the metric's bound: a benchmark whose
// own repeat runs disagree by more than a bound cannot attribute a
// difference of that size to a change.
func selfcheck(opts *options, out io.Writer) error {
	var suites [2]map[string]*result
	for round := range suites {
		suites[round] = map[string]*result{}
		for _, w := range opts.workloads {
			res, err := runEndToEnd(w, opts.seed, opts.seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if res.failed > 0 {
				return fmt.Errorf("%s: %d of %d requests failed (first: %v)", w.name, res.failed, res.attempted, res.firstFailure)
			}
			suites[round][w.name] = res
			runtime.GC()
		}
	}
	fmt.Fprintln(out, "workload metric first second unit diff bound verdict")
	var apart int
	for _, w := range opts.workloads {
		for _, d := range endToEndMetrics {
			a, b := suites[0][w.name].values[d.name], suites[1][w.name].values[d.name]
			diff := ratio(math.Abs(b-a), math.Abs(a))
			verdict := "ok"
			if diff > d.bound {
				verdict = "APART"
				apart++
			}
			fmt.Fprintf(out, "%s %s %.6g %.6g %s %.2f%% %.0f%% %s\n",
				w.name, d.name, a, b, d.unit, 100*diff, 100*d.bound, verdict)
		}
	}
	if apart > 0 {
		return fmt.Errorf("selfcheck: %d metric pairs disagree by more than their bound", apart)
	}
	return nil
}
