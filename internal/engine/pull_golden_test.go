package engine_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"seco/internal/core"
	"seco/internal/engine"
	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/synth"
	"seco/internal/types"
)

var updatePullGolden = flag.Bool("update-pull-golden", false, "rewrite testdata/pull_accounting.golden")

// pullGoldenCells are the scenario × K cells whose pull accounting is
// byte-stable from run to run at Parallelism 1. Budget "planned" runs the
// optimizer's fetching factors, "full" every chunked service at its whole
// result list, so the pull driver rather than the budget decides the
// depth. Movienight's and triangle's full-budget pulls race their join
// prefetchers and are left out.
var pullGoldenCells = []struct {
	scenario string
	ks       []int
	budgets  []string
}{
	{"conftravel", []int{1, 3, 5, 10}, []string{"planned", "full"}},
	{"movienight", []int{1, 3, 5, 10}, []string{"planned"}},
	{"triangle", []int{1, 3, 5, 10}, []string{"planned"}},
}

// TestPullAccountingGolden pins what the pull driver pays and returns on
// the committed scenarios: per-alias calls and invocations, per-node
// Produced (output node included), Halted, and every ranked combination's
// components and score bits; on conftravel also the same pulls cut short
// by a virtual-clock budget, with their degradation reports, random
// workloads planned as chains, and the running example under every join
// strategy, drained and pulled. Each cell runs at Parallelism 1 with call
// sharing off, so the accounting is deterministic.
// Regenerate with: go test ./internal/engine -run TestPullAccountingGolden -update-pull-golden
func TestPullAccountingGolden(t *testing.T) {
	var b bytes.Buffer
	for _, sc := range pullGoldenCells {
		sys, inputs, text, err := core.Scenario(sc.scenario, 7)
		if err != nil {
			t.Fatal(err)
		}
		q, err := sys.Parse(text)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range sc.ks {
			res, err := sys.Plan(q, core.PlanOptions{K: k})
			if err != nil {
				t.Fatalf("%s k=%d: %v", sc.scenario, k, err)
			}
			for _, budget := range sc.budgets {
				cell := fmt.Sprintf("%s k=%d budget=%s", sc.scenario, k, budget)
				run := res
				if budget == "full" {
					if run, err = fullFetches(res); err != nil {
						t.Fatalf("%s: %v", cell, err)
					}
				}
				r, err := sys.Run(context.Background(), run, core.RunOptions{Inputs: inputs, Parallelism: 1})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				writePullCell(&b, cell, r)
				if sc.scenario != "conftravel" {
					continue
				}
				// The same pull cut short by a virtual-clock budget at a
				// quarter, half and three quarters of its elapsed time.
				for _, frac := range []int{25, 50, 75} {
					d, err := sys.Run(context.Background(), run, core.RunOptions{
						Inputs: inputs, Parallelism: 1, Degrade: true,
						Budget: r.Elapsed * time.Duration(frac) / 100,
					})
					if err != nil {
						t.Fatalf("%s budget %d%%: %v", cell, frac, err)
					}
					writePullCell(&b, fmt.Sprintf("%s deadline=%d%%", cell, frac), d)
				}
			}
		}
	}
	writeRandomChainCells(t, &b)
	writeStrategyCells(t, &b)
	path := filepath.Join("testdata", "pull_accounting.golden")
	if *updatePullGolden {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-pull-golden)", err)
	}
	if !bytes.Equal(want, b.Bytes()) {
		got, exp := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(got) && i < len(exp); i++ {
			if got[i] != exp[i] {
				t.Fatalf("pull accounting moved at line %d:\n got %s\nwant %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("pull accounting moved: %d lines, want %d", len(got), len(exp))
	}
}

// writeRandomChainCells adds the random workloads of seeds 0–99 whose
// optimized plan is a chain of scans and pipes (the cells date from when
// a join's prefetchers made the pull schedule-dependent), every chunked
// service at 50 fetches, at K 1 and 5. Their predicates reject tuples in
// the middle of a piped invocation, which the committed scenarios rarely
// do.
func writeRandomChainCells(t *testing.T, b *bytes.Buffer) {
	for seed := int64(0); seed < 100; seed++ {
		w, err := synth.RandomWorkload(seed, 2+int(seed%4))
		if err != nil {
			t.Fatal(err)
		}
		q, err := query.Parse(w.QueryText)
		if err != nil {
			t.Fatal(err)
		}
		if err := q.Analyze(w.Registry); err != nil {
			t.Fatal(err)
		}
		res, err := optimizer.Optimize(q, w.Registry, optimizer.Options{
			K: 5, Stats: w.Stats, FixedInterfaces: true,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		chain := true
		fetches := map[string]int{}
		for _, id := range res.Plan.NodeIDs() {
			n, _ := res.Plan.Node(id)
			switch {
			case n.Kind == plan.KindJoin || n.Kind == plan.KindMultiJoin:
				chain = false
			case n.Kind == plan.KindService && n.Stats.Chunked():
				fetches[id] = 50
			}
		}
		if !chain {
			continue
		}
		a, err := plan.Annotate(res.Plan, fetches)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{1, 5} {
			r, err := engine.New(w.Services(), nil).Execute(context.Background(), a, engine.Options{
				Inputs: w.Inputs, Weights: q.Weights, TargetK: k, Parallelism: 1,
			})
			if err != nil {
				t.Fatalf("seed %d k=%d: %v", seed, k, err)
			}
			writePullCell(b, fmt.Sprintf("random seed=%d k=%d", seed, k), r)
		}
	}
}

// strategyCellMethods are the tile schedules the strategy cells run the
// running example's M‖T join under: nested-loop at two step lengths and
// merge-scan at three ratios, each with every completion.
func strategyCellMethods() []join.Strategy {
	invocations := []join.Strategy{
		{Invocation: join.NestedLoop, H: 1},
		{Invocation: join.NestedLoop, H: 2},
		{Invocation: join.MergeScan, RatioX: 1, RatioY: 1},
		{Invocation: join.MergeScan, RatioX: 1, RatioY: 2},
		{Invocation: join.MergeScan, RatioX: 3, RatioY: 2},
	}
	var out []join.Strategy
	for _, s := range invocations {
		rect, tri, flush := s, s, s
		rect.Completion = join.Rectangular
		tri.Completion = join.Triangular
		flush.Completion, flush.FlushOnExhaust = join.Triangular, true
		out = append(out, rect, tri, flush)
	}
	return out
}

// writeStrategyCells adds the running example of Fig. 10 at its Section
// 5.6 fetches (5 chunks of M, 5 of T, so every tile pairs one of several
// chunks per side) with the M‖T join under each strategy of
// strategyCellMethods, drained and pulled at K 1, 5 and 10. They pin the
// explorer's fetch order, its ranked tile order, triangular deferral
// and flush, and the deferred-tile term of the join's bound.
func writeStrategyCells(t *testing.T, b *bytes.Buffer) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	base, q, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strategyCellMethods() {
		p := base.Clone()
		ms, _ := p.Node("MS")
		ms.Strategy = s
		a, err := plan.Annotate(p, plan.Fig10Fetches())
		if err != nil {
			t.Fatal(err)
		}
		name := s.String()
		if s.FlushOnExhaust {
			name += "+flush"
		}
		for _, policy := range []string{"drain", "pull"} {
			for _, k := range []int{1, 5, 10} {
				r, err := engine.New(world.Services(), nil).Execute(context.Background(), a, engine.Options{
					Inputs: world.Inputs, Weights: q.Weights, TargetK: k, Parallelism: 1,
					Materialize: policy == "drain",
				})
				if err != nil {
					t.Fatalf("%s %s k=%d: %v", name, policy, k, err)
				}
				writePullCell(b, fmt.Sprintf("running-example %s %s k=%d", name, policy, k), r)
			}
		}
	}
}

// fullFetches re-annotates a planned result with every chunked service at
// its whole expected result list.
func fullFetches(res *optimizer.Result) (*optimizer.Result, error) {
	fetches := map[string]int{}
	for _, id := range res.Plan.NodeIDs() {
		n, _ := res.Plan.Node(id)
		if n.Kind == plan.KindService && n.Stats.Chunked() {
			fetches[id] = int((n.Stats.AvgCardinality + float64(n.Stats.ChunkSize) - 1) / float64(n.Stats.ChunkSize))
		}
	}
	a, err := plan.Annotate(res.Plan, fetches)
	if err != nil {
		return nil, err
	}
	full := *res
	full.Annotated = a
	return &full, nil
}

// writePullCell renders one cell: a header with Halted, the per-alias and
// per-node counters in key order, then one line per ranked combination.
func writePullCell(b *bytes.Buffer, cell string, r *engine.Run) {
	fmt.Fprintf(b, "%s halted=%v\n", cell, r.Halted)
	fmt.Fprintf(b, "  calls %s\n", sortedCounts(r.Calls))
	fmt.Fprintf(b, "  invocations %s\n", sortedCounts(r.Invocations))
	produced := make(map[string]int64, len(r.Produced))
	for id, n := range r.Produced {
		produced[id] = int64(n)
	}
	fmt.Fprintf(b, "  produced %s\n", sortedCounts(produced))
	if d := r.Degraded; d != nil {
		depth := make(map[string]int64, len(d.FetchDepth))
		for id, n := range d.FetchDepth {
			depth[id] = int64(n)
		}
		fmt.Fprintf(b, "  degraded %s failed=%v certified=%d bound=%016x depth %s\n",
			d.Reason, d.Failed, d.CertifiedK, math.Float64bits(d.Bound), sortedCounts(depth))
	}
	for i, c := range r.Combinations {
		parts := make([]string, 0, len(c.Components))
		for _, a := range c.Aliases() {
			parts = append(parts, a+":"+tupleID(c.Components[a]))
		}
		fmt.Fprintf(b, "  %d %016x %s\n", i, math.Float64bits(c.Score), strings.Join(parts, " "))
	}
}

func sortedCounts(m map[string]int64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, m[k])
	}
	return strings.Join(parts, " ")
}

// tupleID is a short stable digest of a component tuple: its score bits
// and its atomic attributes in name order.
func tupleID(t *types.Tuple) string {
	names := make([]string, 0, len(t.Attrs))
	for n := range t.Attrs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := fnv.New32a()
	fmt.Fprintf(h, "%016x", math.Float64bits(t.Score))
	for _, n := range names {
		fmt.Fprintf(h, "|%s=%s", n, t.Attrs[n].String())
	}
	return fmt.Sprintf("%08x", h.Sum32())
}
