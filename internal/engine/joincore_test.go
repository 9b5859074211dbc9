package engine

import (
	"context"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"seco/internal/plan"
	"seco/internal/plancheck"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// fullFetches annotates the plan with every chunked service at its fetch
// cap, so the drivers — not the optimizer's fetch assignment — decide how
// deep the services are read.
func fullFetches(t *testing.T, p *plan.Plan) *plan.Annotated {
	t.Helper()
	fetches := map[string]int{}
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		if n.Kind == plan.KindService && n.Stats.Chunked() {
			fetches[id] = int((n.Stats.AvgCardinality + float64(n.Stats.ChunkSize) - 1) / float64(n.Stats.ChunkSize))
		}
	}
	a, err := plan.Annotate(p, fetches)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// scoredComps is a combination reduced to what the oracles compare.
type scoredComps struct {
	score float64
	comps map[string]*types.Tuple
}

// nameScores renders combinations as "score|alias=Name…" lines, sorted:
// equal-score combinations may surface in either order, the set is what
// must agree.
func nameScores(cs []scoredComps) []string {
	out := make([]string, len(cs))
	for i, c := range cs {
		aliases := make([]string, 0, len(c.comps))
		for a := range c.comps {
			aliases = append(aliases, a)
		}
		sort.Strings(aliases)
		var b strings.Builder
		fmt.Fprintf(&b, "%.9f", c.score)
		for _, a := range aliases {
			fmt.Fprintf(&b, "|%s=%s", a, c.comps[a].Atomic("Name").Str())
		}
		out[i] = b.String()
	}
	sort.Strings(out)
	return out
}

func runNameScores(run *Run) []string {
	cs := make([]scoredComps, len(run.Combinations))
	for i, c := range run.Combinations {
		cs[i] = scoredComps{c.Score, c.Components}
	}
	return nameScores(cs)
}

// triangleReferenceTopK is the brute-force top-k of the triangle query:
// every row of every service, the Section 3.1 semantics of
// referenceCombos, ranked by the query's weights.
func triangleReferenceTopK(t *testing.T, q *query.Query, w *synth.TriangleWorld, k int) []string {
	t.Helper()
	all := func(tab *service.Table, in service.Input) []*types.Tuple {
		var rows []*types.Tuple
		inv, err := tab.Invoke(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := inv.Fetch(context.Background())
			if err != nil || len(c.Tuples) == 0 {
				return rows
			}
			rows = append(rows, c.Tuples...)
		}
	}
	city := service.Input{{Path: "City", Value: types.String("Milano")}}
	byAlias := map[string][]*types.Tuple{
		"S": all(w.Festivals, service.Input{{Path: "Name", Value: w.Inputs["INPUT1"]}}),
		"A": all(w.Artists, city), "V": all(w.Venues, city), "P": all(w.Promoters, city),
	}
	aliases := q.Aliases()
	rows := make([][]*types.Tuple, len(aliases))
	for i, a := range aliases {
		if rows[i] = byAlias[a]; len(rows[i]) == 0 {
			t.Fatalf("reference found no rows for alias %s", a)
		}
	}
	var found []scoredComps
	referenceCombos(t, q, rows, w.Inputs, func(combo []*types.Tuple) {
		sc := scoredComps{comps: map[string]*types.Tuple{}}
		for i, a := range aliases {
			sc.comps[a] = combo[i]
			sc.score += q.Weights[a] * combo[i].Score
		}
		found = append(found, sc)
	})
	sort.SliceStable(found, func(i, j int) bool { return found[i].score > found[j].score })
	if len(found) > k {
		found = found[:k]
	}
	return nameScores(found)
}

// TestEqualityJoinRunsAtFanInTwo pins the routing of binary joins on the
// binary-only triangle plan S → (A‖P) ⋈ V: join1 (P.Label = A.Label) is
// all-equality and runs as a round-robin delta join, join2 carries the
// proximity condition A.Draw <= V.Capacity and runs under the explorer
// with its strategy. Both are the one join operator at fan-in 2, and
// both are still OpJoin to plancheck.
func TestEqualityJoinRunsAtFanInTwo(t *testing.T) {
	res, world := triangleFixtureWith(t, 7, true)
	e := New(world.Services(), nil)
	prep, err := e.Prepare(res.Annotated, PrepareOptions{Weights: res.Query.Weights, Materialize: true})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]string{}
	for _, d := range prep.describe().Ops {
		kinds[d.Node] = d.Kind
	}
	ex := &executor{Prepared: prep, run: RunOptions{Inputs: world.Inputs}, scope: e.Invoker().NewRun()}
	g, err := prep.instantiate(ex)
	if err != nil {
		t.Fatal(err)
	}
	defer g.shutdown()
	joins := 0
	for i := range prep.nodes {
		pn := &prep.nodes[i]
		if pn.n.Kind != plan.KindJoin {
			continue
		}
		joins++
		if kinds[pn.id] != plancheck.OpJoin {
			t.Errorf("%s described as %q, want %q", pn.id, kinds[pn.id], plancheck.OpJoin)
		}
		allEq := true
		for _, jp := range pn.n.JoinPreds {
			allEq = allEq && jp.Op == types.OpEq
		}
		inner := g.ops[i].(*countedOp).inner
		m, ok := inner.(*multiJoinOp)
		if !ok || len(m.branches) != 2 {
			t.Errorf("%s %v: operator %T, want the join operator at fan-in 2", pn.id, pn.n.JoinPreds, inner)
		} else if (m.explorer != nil) == allEq {
			t.Errorf("%s %v: explorer %v, want one exactly when a predicate is not an atomic equality",
				pn.id, pn.n.JoinPreds, m.explorer != nil)
		}
	}
	if joins != 2 {
		t.Fatalf("binary triangle plan has %d joins, want 2", joins)
	}

	// Drain at the optimizer's budget: the calls are the parent's, and the
	// join flow is the full 4×4 rectangle of chunk pairs — the multi-way
	// operator enumerates every stored pair, where merge-scan/triangular
	// without a flush admitted only the tiles under the anti-diagonal
	// (47 at join1, 9 at join2).
	run, err := prep.Run(context.Background(), RunOptions{Inputs: world.Inputs})
	if err != nil {
		t.Fatal(err)
	}
	if want := map[string]int64{"S": 1, "A": 4, "P": 4, "V": 4}; !reflect.DeepEqual(run.Calls, want) {
		t.Errorf("drain calls %v, want %v", run.Calls, want)
	}
	want := map[string]int{"input": 1, "S": 1, "A": 20, "P": 20, "V": 20, "join1": 73, "join2": 17, "output": 17}
	if !reflect.DeepEqual(run.Produced, want) {
		t.Errorf("drain produced %v, want %v", run.Produced, want)
	}
}

// TestFanInTwoTopKMatchesReference: over seeds, the binary-only triangle
// plan at full budget returns the brute-force top-5 under both drivers.
func TestFanInTwoTopKMatchesReference(t *testing.T) {
	for _, seed := range []int64{7, 23, 91} {
		res, world := triangleFixtureWith(t, seed, true)
		want := triangleReferenceTopK(t, res.Query, world, 5)
		if len(want) != 5 {
			t.Fatalf("seed %d: reference has %d combinations", seed, len(want))
		}
		a := fullFetches(t, res.Plan)
		for _, materialize := range []bool{false, true} {
			run, err := New(world.Services(), nil).Execute(context.Background(), a, Options{
				Inputs: world.Inputs, Weights: res.Query.Weights, TargetK: 5, Materialize: materialize,
			})
			if err != nil {
				t.Fatalf("seed %d materialize=%v: %v", seed, materialize, err)
			}
			if got := runNameScores(run); !reflect.DeepEqual(got, want) {
				t.Errorf("seed %d materialize=%v: top-5 differs from the reference:\ngot\n%s\nwant\n%s",
					seed, materialize, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		}
	}
}

// TestNonEqualityJoinKeepsExplorer: the running example's M ⋈ T join is a
// repeating-group predicate, so the join operator runs it under the
// explorer's tile order and its node strategy.
func TestNonEqualityJoinKeepsExplorer(t *testing.T) {
	g := compileFixture(t)
	defer g.shutdown()
	found := false
	for i := range g.ex.nodes {
		pn := &g.ex.nodes[i]
		if pn.n.Kind != plan.KindJoin {
			continue
		}
		found = true
		j, ok := g.ops[i].(*countedOp).inner.(*multiJoinOp)
		if !ok || pn.multi == nil || !pn.multi.explore {
			t.Fatalf("%s: operator %T (program %+v), want the join operator marked for the explorer",
				pn.id, g.ops[i].(*countedOp).inner, pn.multi)
		}
		if j.explorer == nil {
			t.Errorf("%s: join operator without an explorer", pn.id)
		}
	}
	if !found {
		t.Fatal("running-example plan has no join node")
	}
}

// TestMixedClassKeyColumnIsAnError: an equality key column carrying both
// strings and ints makes some row pair a cross-kind comparison. The one
// equality index reports that comparison's error at fan-in 2 and n alike
// instead of filing the rows under keys that never meet; a null key part
// matches nothing and is no error.
func TestMixedClassKeyColumnIsAnError(t *testing.T) {
	extra := func(name string, label types.Value) *types.Tuple {
		tu := types.NewTuple(1)
		tu.Set("City", types.String("Milano")).Set("Score", types.Float(1)).
			Set("Name", types.String(name)).Set("Genre", types.String("Genre-00")).
			Set("Draw", types.Int(1))
		if !label.IsNull() {
			tu.Set("Label", label)
		}
		return tu
	}
	for _, tc := range []struct {
		name       string
		binaryOnly bool
	}{{"fan-in 2", true}, {"fan-in 3", false}} {
		for _, materialize := range []bool{false, true} {
			run := func(label types.Value) (*Run, error) {
				res, world := triangleFixtureWith(t, 7, tc.binaryOnly)
				world.Artists.Add(extra("Artist-odd", label))
				return New(world.Services(), nil).Execute(context.Background(), fullFetches(t, res.Plan), Options{
					Inputs: world.Inputs, Weights: res.Query.Weights, TargetK: 5, Materialize: materialize,
				})
			}
			if _, err := run(types.Int(7)); err == nil || !strings.Contains(err.Error(), "types: cannot compare") {
				t.Errorf("%s materialize=%v: int Label among strings: err = %v, want a cross-kind comparison error",
					tc.name, materialize, err)
			}
			got, err := run(types.Null)
			if err != nil {
				t.Fatalf("%s materialize=%v: null Label: %v", tc.name, materialize, err)
			}
			for _, c := range got.Combinations {
				if c.Components["A"].Atomic("Name").Str() == "Artist-odd" {
					t.Errorf("%s materialize=%v: the null-keyed artist joined: %v", tc.name, materialize, c)
				}
			}
			if len(got.Combinations) != 5 {
				t.Errorf("%s materialize=%v: %d combinations beside a null key, want 5", tc.name, materialize, len(got.Combinations))
			}
		}
	}
}

// TestNumericEdgeKeysMatchReference: the posting lists key on the shared
// types.EqKey, which agrees with Value.Compare where raw float bits do
// not. The triangle's Label edge is rewritten to numbers — ints on the
// artists, the equal floats on the promoters, label 0 as 0 against -0.0 —
// and the engine must still find every combination the brute force finds,
// at fan-in 2 and 3. A NaN label has no key at all (it compares equal to
// every number): the edge then falls back to verifying candidates.
func TestNumericEdgeKeysMatchReference(t *testing.T) {
	relabel := func(tab *service.Table, number func(name string, n int) types.Value) *service.Table {
		out, err := service.NewTable(tab.Interface(), tab.Stats())
		if err != nil {
			t.Fatal(err)
		}
		inv, err := tab.Invoke(context.Background(), service.Input{{Path: "City", Value: types.String("Milano")}})
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := inv.Fetch(context.Background())
			if err != nil {
				return out
			}
			for _, tu := range c.Tuples {
				var n int
				if _, err := fmt.Sscanf(tu.Atomic("Label").Str(), "Label-%d", &n); err != nil {
					t.Fatal(err)
				}
				c := types.NewTuple(tu.Score)
				maps.Copy(c.Attrs, tu.Attrs)
				maps.Copy(c.Groups, tu.Groups)
				out.Add(c.Set("Label", number(tu.Atomic("Name").Str(), n)))
			}
		}
	}
	for _, tc := range []struct{ binaryOnly, nan bool }{{true, false}, {false, false}, {true, true}, {false, true}} {
		binaryOnly := tc.binaryOnly
		res, world := triangleFixtureWith(t, 7, binaryOnly)
		const nanArtist = "Artist-060" // mid-list, so posting lists exist when it arrives
		world.Artists = relabel(world.Artists, func(name string, n int) types.Value {
			if tc.nan && name == nanArtist {
				return types.Float(math.NaN())
			}
			return types.Int(int64(n))
		})
		world.Promoters = relabel(world.Promoters, func(_ string, n int) types.Value {
			if n == 0 {
				return types.Float(math.Copysign(0, -1))
			}
			return types.Float(float64(n))
		})
		want := triangleReferenceTopK(t, res.Query, world, 1<<20)
		if len(want) < 20 {
			t.Fatalf("%+v: reference has only %d combinations", tc, len(want))
		}
		for _, materialize := range []bool{false, true} {
			run, err := New(world.Services(), nil).Execute(context.Background(), fullFetches(t, res.Plan), Options{
				Inputs: world.Inputs, Weights: res.Query.Weights, Materialize: materialize,
			})
			if err != nil {
				t.Fatalf("%+v materialize=%v: %v", tc, materialize, err)
			}
			if got := runNameScores(run); !reflect.DeepEqual(got, want) {
				t.Errorf("%+v materialize=%v: %d combinations, the reference has %d",
					tc, materialize, len(got), len(want))
			}
		}
	}
}

// sliceOp replays fixed combinations and counts how often it was pulled.
type sliceOp struct {
	combs []*comb
	pulls int
}

func (s *sliceOp) Open(context.Context) error { return nil }
func (s *sliceOp) Next(context.Context) (*comb, error) {
	s.pulls++
	if len(s.combs) == 0 {
		return nil, nil
	}
	c := s.combs[0]
	s.combs = s.combs[1:]
	return c, nil
}
func (s *sliceOp) Bound() float64 { return 0 }
func (s *sliceOp) Close()         {}

// TestServiceReaderModes drives the one demand-paged reader over a keyed
// service (6 tuples per key, chunks of 2, budget 3). A scan invokes once
// with its fixed input, shares the fetched prefix across the upstream
// combinations and gives up the moment the service turns out empty; a
// pipe invokes per combination with the key the combination supplies. In
// both modes a chunk is fetched only when the enumeration runs past the
// prefix. A pipe at Parallelism p holds p combinations at once; under a
// clock that waits it prepays the first chunk of each one ahead of the
// current one, under a VirtualClock it invokes none of them before the
// enumeration reaches it. Counts are read once the look-ahead fetches
// have landed.
func TestServiceReaderModes(t *testing.T) {
	type step struct {
		pull                 int // combinations to pull in this step (-1: to exhaustion)
		got                  int // combinations the step must return
		invocations, fetches int64
		upstreamPulls        int
	}
	keyIn := service.Input{{Path: "Key"}}
	keyPipe := []pipeBind{{pos: 0, slot: 0, from: query.PathRef{Alias: "U", Path: "Id"}}}
	for _, tc := range []struct {
		name   string
		fixed  service.Input // the node's template, its pipe positions unset
		pipes  []pipeBind    // non-empty: the reader is a pipe
		par    int
		clk    Clock   // nil: a VirtualClock
		upKeys []int64 // the upstream combinations' Ids (piped: their keys)
		steps  []step
	}{
		{"scan pages one shared prefix", service.Input{{Path: "Key", Value: types.Int(1)}}, nil, 1, nil, []int64{0, 1, 2}, []step{
			{1, 1, 1, 1, 1},   // first combination: one chunk, not the budget
			{2, 2, 1, 2, 1},   // third tuple needs the second chunk
			{4, 4, 1, 3, 2},   // 2nd upstream combination re-reads the prefix: no call
			{-1, 11, 1, 3, 4}, // 18 in all, still one invocation and three fetches
		}},
		{"scan stops on an empty service", service.Input{{Path: "Key", Value: types.Int(99)}}, nil, 1, nil, []int64{0, 1, 2}, []step{
			{-1, 0, 1, 0, 1}, // nothing can compose: the other two upstream pulls are skipped
		}},
		{"piped starts over per combination", keyIn, keyPipe, 1, nil, []int64{0, 1, 2}, []step{
			{1, 1, 1, 1, 1},   // no prepayment: one chunk of a budget of three
			{5, 5, 1, 3, 1},   // the rest of combination 0
			{1, 1, 2, 4, 2},   // combination 1 invokes afresh and pays one chunk
			{-1, 11, 3, 9, 4}, // 18 in all: three invocations of three chunks
		}},
		{"piped survives an empty invocation", keyIn, keyPipe, 1, nil, []int64{99, 1}, []step{
			{1, 1, 2, 1, 2}, // key 99 yields nothing; the next combination may still
			{-1, 5, 2, 3, 3},
		}},
		{"piped window of three", keyIn, keyPipe, 3, &yieldClock{}, []int64{0, 1, 2, 3, 4}, []step{
			{1, 1, 3, 3, 3},    // the current combination's chunk plus two first chunks ahead
			{5, 5, 3, 5, 3},    // the rest of combination 0, on demand
			{1, 1, 4, 6, 4},    // combination 1 has its chunk; combination 3 joins the window
			{-1, 23, 5, 15, 6}, // a drain still fetches every invocation to its budget
		}},
		{"piped window of three on a virtual clock", keyIn, keyPipe, 3, nil, []int64{0, 1, 2, 3, 4}, []step{
			{1, 1, 1, 1, 3},    // the window is pulled, but only the current combination is invoked
			{5, 5, 1, 3, 3},    // the rest of combination 0, on demand
			{1, 1, 2, 4, 4},    // combination 1 is invoked once reached; combination 3 joins the window
			{-1, 23, 5, 15, 6}, // a drain still fetches every invocation to its budget
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab, err := synth.NewKeyed("X", 5, 6, service.Stats{
				AvgCardinality: 6, ChunkSize: 2, CostPerCall: 1, Scoring: service.Linear(6),
			})
			if err != nil {
				t.Fatal(err)
			}
			e := New(map[string]service.Service{"X": tab}, tc.clk)
			layout := &aliasLayout{slots: map[string]int{"U": 0, "X": 1}, aliases: []string{"U", "X"}, weights: []float64{1, 1}}
			up := &sliceOp{}
			upIndex := map[*types.Tuple]int{}
			for i, k := range tc.upKeys {
				tu := types.NewTuple(0.5)
				tu.Set("Id", types.Int(k))
				upIndex[tu] = i
				up.combs = append(up.combs, &comb{score: 0.5, comps: []*types.Tuple{tu, nil}})
			}
			sp := &svcProg{
				n: &plan.Node{ID: "X", Alias: "X", Stats: tab.Stats()}, slot: 1, budget: 3, w: 1, hint: 6,
				in: tc.fixed, pipes: tc.pipes,
			}
			counter := e.Invoker().NewRun().Counter("X")
			ex := &executor{Prepared: &Prepared{engine: e, layout: layout}}
			g := &graph{ex: ex}
			op := &serviceOp{
				svcProg: sp, ex: ex, g: g,
				counter: counter, fixed: tc.fixed, par: tc.par, up: up, depth: &atomic.Int64{},
				arena: g.newArena(),
			}
			defer op.Close()
			ctx := context.Background()
			last := 0
			for i, st := range tc.steps {
				got := 0
				for st.pull < 0 || got < st.pull {
					c, err := op.Next(ctx)
					if err != nil {
						t.Fatal(err)
					}
					if c == nil {
						break
					}
					got++
					// Results come out in upstream order.
					if at := upIndex[c.comps[0]]; at < last {
						t.Fatalf("step %d: combination %d emitted after combination %d", i, at, last)
					} else {
						last = at
					}
				}
				g.wg.Wait()
				for _, r := range op.ahead {
					if r.fetches > 1 {
						t.Fatalf("step %d: a combination ahead of the current one holds %d chunks", i, r.fetches)
					}
					if e.virtual && r.inv != nil {
						t.Fatalf("step %d: a combination ahead of the current one was invoked on a virtual clock", i)
					}
				}
				if got != st.got || counter.Invocations() != st.invocations ||
					counter.Fetches() != st.fetches || up.pulls != st.upstreamPulls {
					t.Fatalf("step %d: %d combinations, %d invocations, %d fetches, %d upstream pulls; want %d, %d, %d, %d",
						i, got, counter.Invocations(), counter.Fetches(), up.pulls,
						st.got, st.invocations, st.fetches, st.upstreamPulls)
				}
			}
		})
	}
}

// A join branch on a VirtualClock pulls its reader only inside take:
// start launches nothing and release has nothing to drain. On a clock
// that waits, start prefetches the chunk on a goroutine of its own.
func TestJoinBranchPullsOnlyInTake(t *testing.T) {
	for _, tc := range []struct {
		name string
		clk  Clock
		// pulls after start, after the first take, after the second take
		// (each read once any prefetch has landed)
		pulls [3]int
	}{
		{"virtual clock", nil, [3]int{0, 2, 4}},
		{"clock that waits", &yieldClock{}, [3]int{2, 4, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			up := &sliceOp{}
			for i := 0; i < 4; i++ {
				up.combs = append(up.combs, &comb{score: 0.5})
			}
			g := &graph{ex: &executor{Prepared: &Prepared{engine: New(nil, tc.clk)}}}
			b := &joinBranch{g: g, reader: up, size: 2, ch: make(chan branchPull, 1), bestSeen: math.Inf(-1)}
			defer b.release()
			ctx := context.Background()
			b.start(ctx)
			g.wg.Wait()
			got := [3]int{up.pulls}
			for i := 1; i < 3; i++ {
				chunk, err := b.take(ctx)
				if err != nil || len(chunk) != 2 {
					t.Fatalf("take %d: %d combinations, %v; want 2", i, len(chunk), err)
				}
				g.wg.Wait()
				got[i] = up.pulls
			}
			if got != tc.pulls {
				t.Errorf("reader pulls after start and two takes = %v, want %v", got, tc.pulls)
			}
		})
	}
}
