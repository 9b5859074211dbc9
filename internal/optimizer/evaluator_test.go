package optimizer_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"

	"seco/internal/core"
	"seco/internal/optimizer"
	"seco/internal/plan"
)

// sameAnnotation reports the first field of the first node, in ID order,
// on which two annotations of one plan differ in any bit.
func sameAnnotation(got, want *plan.Annotated) error {
	if len(got.Ann) != len(want.Ann) || len(got.Fetches) != len(want.Fetches) {
		return fmt.Errorf("%d annotations and %d factors, want %d and %d",
			len(got.Ann), len(got.Fetches), len(want.Ann), len(want.Fetches))
	}
	for _, id := range want.Plan.NodeIDs() {
		g, w := got.Ann[id], want.Ann[id]
		for _, f := range []struct {
			name string
			g, w float64
		}{
			{"tin", g.TIn, w.TIn}, {"tout", g.TOut, w.TOut},
			{"calls", g.Calls, w.Calls}, {"candidates", g.Candidates, w.Candidates},
		} {
			if math.Float64bits(f.g) != math.Float64bits(f.w) {
				return fmt.Errorf("node %s %s = %v (%x), want %v (%x)", id, f.name,
					f.g, math.Float64bits(f.g), f.w, math.Float64bits(f.w))
			}
		}
		if g.Fetches != w.Fetches || got.Fetches[id] != want.Fetches[id] {
			return fmt.Errorf("node %s fetches = %d/%d, want %d/%d", id,
				g.Fetches, got.Fetches[id], w.Fetches, want.Fetches[id])
		}
	}
	return nil
}

// The incremental entry point agrees with a fresh annotation of the same
// assignment bit for bit on every field of every node — after bumps,
// after un-bumps, and after a rejected factor, which must change nothing.
func TestSetFetchesMatchesFreshAnnotate(t *testing.T) {
	plans := map[string]*plan.Plan{}
	forEachGoldenCell(t, func(cell string, res *optimizer.Result) {
		data, err := json.Marshal(res.Plan)
		if err != nil {
			t.Fatal(err)
		}
		plans[string(data)] = res.Plan
	})
	keys := make([]string, 0, len(plans))
	for k := range plans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewSource(23))
	for _, key := range keys {
		p := plans[key]
		var chunked []string
		for _, n := range p.ServiceNodes() {
			if n.Stats.Chunked() {
				chunked = append(chunked, n.ID)
			}
		}
		if len(chunked) == 0 {
			continue
		}
		for seq := 0; seq < 200; seq++ {
			a, err := plan.Annotate(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < 6; step++ {
				id := chunked[rng.Intn(len(chunked))]
				f := a.Fetches[id] + rng.Intn(5) - 2 // two down … two up
				err := a.SetFetches(id, f)
				if (f < 1) != (err != nil) {
					t.Fatalf("SetFetches(%s, %d) = %v", id, f, err)
				}
				fresh, ferr := plan.Annotate(p, a.Fetches)
				if ferr != nil {
					t.Fatal(ferr)
				}
				if err := sameAnnotation(a, fresh); err != nil {
					t.Fatalf("sequence %d step %d, after SetFetches(%s, %d): %v", seq, step, id, f, err)
				}
			}
		}
		if err := refusalsChangeNothing(p, chunked[0]); err != nil {
			t.Fatal(err)
		}
	}
}

// refusalsChangeNothing checks that SetFetches refuses nodes that take no
// fetching factor, and a factor below 1, leaving the annotation untouched.
func refusalsChangeNothing(p *plan.Plan, chunked string) error {
	a, err := plan.Annotate(p, nil)
	if err != nil {
		return err
	}
	before, err := plan.Annotate(p, nil)
	if err != nil {
		return err
	}
	for _, id := range []string{"input", "output", "no-such-node"} {
		if a.SetFetches(id, 2) == nil {
			return fmt.Errorf("SetFetches(%s, 2) accepted", id)
		}
	}
	if a.SetFetches(chunked, 0) == nil {
		return fmt.Errorf("SetFetches(%s, 0) accepted", chunked)
	}
	return sameAnnotation(a, before)
}

// resultKey renders everything of a result that must not depend on which
// goroutine planned it.
func resultKey(t testing.TB, res *optimizer.Result) string {
	data, err := json.Marshal(res.Plan)
	if err != nil {
		t.Error(err)
	}
	return fmt.Sprintf("%s|%s|%s|%x|%d|%d|%d", res.Topology, data, fetchesOf(res),
		math.Float64bits(res.Cost), res.Explored, res.Pruned, res.Assignments)
}

// One analyzed query is planned from many goroutines at once: its derived
// join predicates and the system's statistics are shared, read-only state.
func TestOptimizeSharedQueryConcurrently(t *testing.T) {
	sys, _, err := core.Triangle(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(coldTriangleText)
	if err != nil {
		t.Fatal(err)
	}
	first, err := sys.Plan(q, core.PlanOptions{K: 10})
	if err != nil {
		t.Fatal(err)
	}
	want := resultKey(t, first)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				res, err := sys.Plan(q, core.PlanOptions{K: 10})
				if err != nil {
					t.Error(err)
					return
				}
				if got := resultKey(t, res); got != want {
					t.Errorf("concurrent plan differs:\n got %s\nwant %s", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A cold plan of the triangle variant — parse, analyze, branch and bound —
// stays under an allocation ceiling set about 20 % above what it costs
// (6 006 allocations, 915 KB; before the plan resolved its layout once it
// was 33 753 and 2.75 MB).
func TestOptimizeAllocationCeiling(t *testing.T) {
	sys, _, err := core.Triangle(7)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		q, err := sys.Parse(coldTriangleText)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Plan(q, core.PlanOptions{K: 10}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := (after.Mallocs - before.Mallocs) / rounds
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds
	if allocs > 7200 || bytes > 1_100_000 {
		t.Errorf("cold triangle plan: %d allocations, %d bytes; ceiling 7200 and 1100000", allocs, bytes)
	}
}
