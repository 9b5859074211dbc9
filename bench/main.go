// Command bench (secobench) is the repository's benchmark of record: it
// starts a real serve.Server behind a loopback listener, drives
// POST /query with closed-loop keep-alive clients on the wall clock,
// checks every response against an independently computed reference, and
// prints end-to-end metrics from an untraced pass and per-layer metrics
// from a separate traced pass. See README.md for the workloads, the
// metrics and how they are expected to interact.
//
// Usage:
//
//	go run ./bench                      # four workloads, both passes
//	go run ./bench -workload triangle-churn -trace 0
//	go run ./bench -selfcheck           # two end-to-end suites, compared
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every pass prints one line per metric — workload metric value unit —
// and ends with one JSON object holding the same metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secobench:", err)
		os.Exit(1)
	}
}

// options is the parsed flag set.
type options struct {
	workloads []*workload
	seed      int64
	seconds   float64
	endToEnd  bool // run the untraced pass
	perLayer  bool // run the traced pass
	spansPath string
	selfcheck bool
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("secobench", flag.ContinueOnError)
	var (
		name      = fs.String("workload", "all", "workload to run (all = the four in order)")
		seed      = fs.Int64("seed", 7, "request-schedule seed")
		seconds   = fs.Float64("seconds", 30, "measured seconds per pass")
		trace     = fs.String("trace", "both", "0 = end-to-end pass, 1 = traced per-layer pass, both")
		spans     = fs.String("spans", "", "write the traced pass's spans to this file as JSON")
		selfcheck = fs.Bool("selfcheck", false, "run the end-to-end suite twice and compare against the bounds")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	opts := &options{seed: *seed, seconds: *seconds, spansPath: *spans, selfcheck: *selfcheck}
	if *name == "all" {
		opts.workloads = workloads()
	} else {
		w, ok := workloadByName(*name)
		if !ok {
			return nil, fmt.Errorf("unknown workload %q", *name)
		}
		opts.workloads = []*workload{w}
	}
	switch *trace {
	case "0":
		opts.endToEnd = true
	case "1":
		opts.perLayer = true
	case "both":
		opts.endToEnd, opts.perLayer = true, true
	default:
		return nil, fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}
	if *seconds <= 0 {
		return nil, fmt.Errorf("-seconds %v: want a positive duration", *seconds)
	}
	if opts.spansPath != "" && (!opts.perLayer || len(opts.workloads) != 1) {
		return nil, fmt.Errorf("-spans needs one -workload and a traced pass")
	}
	return opts, nil
}

func run(args []string, out io.Writer) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	if opts.selfcheck {
		return selfcheck(opts, out)
	}
	for _, w := range opts.workloads {
		if opts.endToEnd {
			res, err := runEndToEnd(w, opts.seed, opts.seconds)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := res.print(out, w.name, endToEndMetrics); err != nil {
				return err
			}
		}
		if opts.perLayer {
			res, err := runPerLayer(w, opts.seed, opts.seconds, opts.spansPath)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if err := res.print(out, w.name, perLayerMetrics); err != nil {
				return err
			}
		}
		// The next workload starts from a collected heap, not from what
		// this one's server left behind.
		runtime.GC()
	}
	return nil
}

// metricDef names one reported metric. bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// result is one pass's outcome in the shape the driver reads.
type result struct {
	attempted, failed int
	values            map[string]float64
	notes             map[string]string // per metric: sample counts and the like
	firstFailure      error
}

// print writes one line per metric, then the JSON object.
func (r *result) print(out io.Writer, workload string, defs []metricDef) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	doc := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", workload, d.name)
		}
		line := fmt.Sprintf("%s %s %.6g %s", workload, d.name, v, d.unit)
		if note := r.notes[d.name]; note != "" {
			line += "  # " + note
		}
		fmt.Fprintln(out, line)
		doc.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	fmt.Fprintf(out, "%s failed_share %.6g ratio  # %d failed of %d attempted\n",
		workload, ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
	if r.failed > 0 && r.firstFailure != nil {
		fmt.Fprintf(out, "# %s first failure: %v\n", workload, r.firstFailure)
	}
	return json.NewEncoder(out).Encode(doc)
}

// endToEndMetrics is what a caller of POST /query and an operator of the
// process see. The list, units, directions and bounds are mirrored in
// BENCHMARK.json; a test keeps the two equal.
var endToEndMetrics = []metricDef{
	{"throughput_rps", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "KB", "lower", 0.05},
	{"fetches_per_req", "count", "lower", 0.02},
	{"heap_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// setupRounds is how many times a run sets the server up; setup_s is
// their median. One set-up is a few milliseconds, so a single reading is
// mostly scheduler noise.
const setupRounds = 15

// passShape splits the measured seconds into slices: 5 s each, never
// fewer than three; and sizes the discarded warm-up.
func passShape(seconds float64) (warm, slice time.Duration, n int) {
	n = int(seconds / 5)
	if n < 3 {
		n = 3
	}
	total := time.Duration(seconds * float64(time.Second))
	warm = 3 * time.Second
	if w := total * 3 / 10; w < warm {
		warm = w
	}
	return warm, total / time.Duration(n), n
}

// runEndToEnd measures one workload untraced: setupRounds set-ups, the
// last of which serves the warm-up and the measured slices.
func runEndToEnd(w *workload, seed int64, seconds float64) (*result, error) {
	o, err := newOracle(w)
	if err != nil {
		return nil, err
	}
	var (
		in     *instance
		setups []float64
	)
	for i := 0; i < setupRounds; i++ {
		if in != nil {
			if err := in.close(); err != nil {
				return nil, err
			}
		}
		var took time.Duration
		in, took, err = setup(w, o, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, took.Seconds())
	}
	warm, slice, n := passShape(seconds)
	p, err := in.measure(w, seed, o, w.clients, warm, slice, n)
	if cerr := in.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	if p.correct() == 0 {
		return nil, fmt.Errorf("no correct response in the measured window (first failure: %v)", p.firstFailure)
	}
	reqs := float64(p.correct())
	perSlice := fmt.Sprintf("median of %d slices of %v, %d samples in the median slice",
		n, slice, int(p.over(func(s sliceStats) float64 { return float64(s.n) })))
	return &result{
		attempted: p.attempted, failed: p.failed, firstFailure: p.firstFailure,
		values: map[string]float64{
			"throughput_rps":   p.over(func(s sliceStats) float64 { return s.rps }),
			"latency_p50_ms":   p.over(func(s sliceStats) float64 { return s.p50 }),
			"latency_p99_ms":   p.over(func(s sliceStats) float64 { return s.p99 }),
			"cpu_ms_per_req":   float64(p.cpu) / 1e6 / reqs,
			"alloc_kb_per_req": float64(p.allocBytes) / 1024 / reqs,
			"fetches_per_req":  float64(sumPrefix(p.counters, "seco.invoker.fetches.")) / reqs,
			"heap_mb":          p.heapMB,
			"setup_s":          median(setups),
		},
		notes: map[string]string{
			"throughput_rps": perSlice,
			"latency_p50_ms": perSlice,
			"latency_p99_ms": fmt.Sprintf("p%.4g, %s", 100*p.over(func(s sliceStats) float64 { return s.tail }), perSlice),
			"cpu_ms_per_req": fmt.Sprintf("whole process, %d in-process clients included, %d requests", w.clients, p.correct()),
			"heap_mb":        fmt.Sprintf("median HeapInuse after a forced collection at %d slice ends", n),
			"setup_s":        fmt.Sprintf("median of %d set-ups", setupRounds),
		},
	}, nil
}
