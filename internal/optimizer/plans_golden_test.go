package optimizer_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"seco/internal/core"
	"seco/internal/cost"
	"seco/internal/optimizer"
	"seco/internal/query"
	"seco/internal/synth"
	"seco/internal/types"
)

var updatePlansGolden = flag.Bool("update-plans-golden", false, "rewrite testdata/plans.golden")

// coldTriangleText is the triangle query with one more always-true
// selection, the shape secobench's triangle-churn workload plans cold.
var coldTriangleText = strings.Replace(query.TriangleExampleText, "\nrank", " and A.Draw > -1\nrank", 1)

// fetchesOf renders a result's fetching-factor assignment in ID order.
func fetchesOf(res *optimizer.Result) string {
	f := res.Annotated.Fetches
	ids := make([]string, 0, len(f))
	for id := range f {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = fmt.Sprintf("%s=%d", id, f[id])
	}
	return strings.Join(parts, ",")
}

// goldenPlans collects one line per planned cell and every distinct plan
// JSON once, keyed by a hash prefix the lines refer to.
type goldenPlans struct {
	lines []string
	plans map[string]string
}

func (g *goldenPlans) add(t *testing.T, cell string, res *optimizer.Result) {
	t.Helper()
	data, err := json.Marshal(res.Plan)
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	sum := sha256.Sum256(data)
	key := fmt.Sprintf("%x", sum[:6])
	if prev, ok := g.plans[key]; ok && prev != string(data) {
		t.Fatalf("%s: plan hash prefix %s collides", cell, key)
	}
	g.plans[key] = string(data)
	g.lines = append(g.lines, fmt.Sprintf("%s | %s | plan=%s | %s | cost=%016x | explored=%d pruned=%d assignments=%d",
		cell, res.Topology, key, fetchesOf(res), math.Float64bits(res.Cost),
		res.Explored, res.Pruned, res.Assignments))
}

func (g *goldenPlans) bytes() []byte {
	var b bytes.Buffer
	for _, l := range g.lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	keys := make([]string, 0, len(g.plans))
	for k := range g.plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "plan %s %s\n", k, g.plans[k])
	}
	return b.Bytes()
}

// forEachGoldenCell plans every cell the golden covers — the four
// committed scenarios across metrics, heuristics, K and join topology,
// then a hundred random workloads — and hands each result to visit.
func forEachGoldenCell(t *testing.T, visit func(cell string, res *optimizer.Result)) {
	t.Helper()
	scenarios := []struct {
		name  string
		build func(int64) (*core.System, map[string]types.Value, error)
		text  string
	}{
		{"movienight", core.MovieNight, query.RunningExampleText},
		{"conftravel", core.ConfTravel, query.TravelExampleText},
		{"triangle", core.Triangle, query.TriangleExampleText},
		{"triangle-cold", core.Triangle, coldTriangleText},
	}
	fetchHs := []optimizer.FetchHeuristic{optimizer.Greedy, optimizer.SquareIsBetter}
	topoHs := []optimizer.TopologyHeuristic{optimizer.SelectiveFirst, optimizer.ParallelIsBetter}
	for _, sc := range scenarios {
		sys, _, err := sc.build(7)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range cost.All() {
			for _, fh := range fetchHs {
				for _, th := range topoHs {
					for _, k := range []int{3, 10} {
						for _, noMulti := range []bool{false, true} {
							cell := fmt.Sprintf("%s %s %s %s k=%d multiway=%t", sc.name, m.Name(), fh, th, k, !noMulti)
							q, err := sys.Parse(sc.text)
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							res, err := sys.Plan(q, core.PlanOptions{
								K: k, Metric: m.Name(), DisableMultiway: noMulti,
								Heuristics: optimizer.Heuristics{Fetch: fh, Topology: th},
							})
							if err != nil {
								t.Fatalf("%s: %v", cell, err)
							}
							visit(cell, res)
						}
					}
				}
			}
		}
	}

	metrics := cost.All()
	for seed := int64(1); seed <= 100; seed++ {
		n := 3 + int(seed%4)
		m := metrics[int(seed)%len(metrics)]
		cell := fmt.Sprintf("random seed=%d n=%d %s", seed, n, m.Name())
		w, err := synth.RandomWorkload(seed, n)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		q, err := query.Parse(w.QueryText)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		if err := q.Analyze(w.Registry); err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		res, err := optimizer.Optimize(q, w.Registry, optimizer.Options{
			K: 10, Metric: m, Stats: w.Stats, FixedInterfaces: true,
			Heuristics: optimizer.Heuristics{Fetch: fetchHs[seed%2], Topology: topoHs[(seed/2)%2]},
		})
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		visit(cell, res)
	}
}

// TestPlansGolden pins what the optimizer chooses, and how it searched,
// on every cell: a change to the cost evaluator or the search must leave
// every line as it is.
func TestPlansGolden(t *testing.T) {
	g := &goldenPlans{plans: map[string]string{}}
	forEachGoldenCell(t, func(cell string, res *optimizer.Result) { g.add(t, cell, res) })

	got := g.bytes()
	path := filepath.Join("testdata", "plans.golden")
	if *updatePlansGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("plans.golden line %d moved:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("plans.golden: %d lines, want %d", len(gl), len(wl))
	}
}
