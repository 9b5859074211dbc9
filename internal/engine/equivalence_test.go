package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"seco/internal/join"
	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// All four Fig. 9 topologies are different physical realizations of the
// same declarative query: executed with exhaustive fetch budgets and
// rectangular joins, each must produce exactly the same combination set.
// This exercises the engine's sequential-composition path (chains with
// service-node join predicates) against the parallel-join path, on a
// VirtualClock and on a clock that waits, whose look-ahead and prefetch
// goroutines overlap the calls.
func TestFig9TopologiesProduceSameResults(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.RunningExample(reg)
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the world so exhaustive execution of chain topologies stays
	// fast (chains invoke the piped service per upstream tuple).
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{
		Movies: 40, Theatres: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := plan.RunningExampleStats()
	tops, err := optimizer.EnumerateTopologies(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(tops) != 4 {
		t.Fatalf("topologies = %d", len(tops))
	}
	results := map[string][]string{}
	for _, top := range tops {
		p, err := optimizer.BuildPlan(q, top, stats, 1000, false)
		if err != nil {
			t.Fatalf("%v: %v", top, err)
		}
		// Exhaustive: every join rectangular, fetch budgets above the
		// world size.
		fetches := map[string]int{}
		for _, id := range p.NodeIDs() {
			n, _ := p.Node(id)
			if n.Kind == plan.KindJoin {
				n.Strategy.Completion = 0 // rectangular
			}
			if n.Kind == plan.KindService && n.Stats.Chunked() {
				fetches[id] = 100
			}
		}
		a, err := plan.Annotate(p, fetches)
		if err != nil {
			t.Fatal(err)
		}
		for _, clk := range []Clock{nil, &yieldClock{}} {
			run, err := New(world.Services(), clk).Execute(context.Background(), a, Options{
				Inputs: world.Inputs, Weights: q.Weights,
			})
			if err != nil {
				t.Fatalf("%v: %v", top, err)
			}
			var sigs []string
			for _, c := range run.Combinations {
				sigs = append(sigs, comboIdentity(c))
			}
			sort.Strings(sigs)
			results[fmt.Sprintf("%s on %T", top, clk)] = sigs
		}
	}
	var ref []string
	var refName string
	for name, sigs := range results {
		if ref == nil {
			ref, refName = sigs, name
			continue
		}
		if len(sigs) != len(ref) {
			t.Errorf("%s produced %d combinations, %s produced %d",
				name, len(sigs), refName, len(ref))
			continue
		}
		for i := range ref {
			if sigs[i] != ref[i] {
				t.Errorf("%s and %s diverge at %d: %s vs %s",
					name, refName, i, sigs[i], ref[i])
				break
			}
		}
	}
	if len(ref) == 0 {
		t.Fatal("no combinations produced by any topology; test is vacuous")
	}
}

func comboIdentity(c *types.Combination) string {
	var parts []string
	for _, a := range c.Aliases() {
		t := c.Components[a]
		label := t.Get("Title")
		if label.IsNull() {
			label = t.Get("Name")
		}
		parts = append(parts, a+"="+label.String())
	}
	sort.Strings(parts)
	out := ""
	for _, p := range parts {
		out += p + ";"
	}
	return out
}

// A join evaluates a pair predicate whichever of its inputs carries the
// predicate's left alias, and refuses one whose aliases its inputs do not
// split. Each case compiles a binary join over two replayed inputs, once
// with an equality (the round-robin delta join) and once with a
// comparison (the explorer), and drains it.
func TestMatchAcrossOrientation(t *testing.T) {
	layout := &aliasLayout{
		slots:   map[string]int{"A": 0, "B": 1, "C": 2},
		aliases: []string{"A", "B", "C"},
		weights: []float64{1, 1, 1},
	}
	p := plan.New(5)
	for _, a := range layout.aliases {
		if err := p.AddNode(&plan.Node{ID: a, Kind: plan.KindService, Alias: a}); err != nil {
			t.Fatal(err)
		}
	}
	mk := func(alias, attr string, v int64) *comb {
		tu := types.NewTuple(0.5)
		tu.Set(attr, types.Int(v))
		comps := make([]*types.Tuple, layout.width())
		comps[layout.slots[alias]] = tu
		return &comb{score: 0.5, comps: comps}
	}
	// joined compiles A.X op B.Y over the two inputs and drains it: the
	// number of combinations, or the compile error.
	joined := func(op types.Op, inputs [2]string, rows [2]*comb) (int, error) {
		n := &plan.Node{ID: "J", Kind: plan.KindJoin, Strategy: join.Strategy{Invocation: join.MergeScan},
			JoinPreds: []query.Predicate{{
				Left: query.PathRef{Alias: "A", Path: "X"}, Op: op,
				Right: query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "B", Path: "Y"}},
			}}}
		c := &compiler{ann: &plan.Annotated{Plan: p}, layout: layout}
		mp, err := c.join(n, inputs[:])
		if err != nil {
			return 0, err
		}
		if mp.explore != (op != types.OpEq) {
			t.Errorf("%v join: explore = %v", op, mp.explore)
		}
		g := &graph{
			ex: &executor{Prepared: &Prepared{engine: New(nil, nil), layout: layout,
				nodes: []progNode{{id: inputs[0]}, {id: inputs[1]}}}},
			ops:    []Operator{&sliceOp{combs: rows[:1]}, &sliceOp{combs: rows[1:]}},
			shared: make([]*sharedOp, 2),
		}
		op2, err := g.newMultiJoinOp(&progNode{id: "J", n: n, inputs: []int{0, 1}, multi: mp})
		if err != nil {
			return 0, err
		}
		defer op2.Close()
		ctx := context.Background()
		if err := op2.Open(ctx); err != nil {
			return 0, err
		}
		got := 0
		for {
			c, err := op2.Next(ctx)
			if err != nil || c == nil {
				return got, err
			}
			got++
		}
	}
	for _, op := range []types.Op{types.OpEq, types.OpGe} {
		// Natural orientation: A on the left input.
		if got, err := joined(op, [2]string{"A", "B"}, [2]*comb{mk("A", "X", 5), mk("B", "Y", 5)}); err != nil || got != 1 {
			t.Errorf("%v natural orientation: %d combinations, %v", op, got, err)
		}
		// Swapped: A arrives on the right input of the join.
		if got, err := joined(op, [2]string{"B", "A"}, [2]*comb{mk("B", "Y", 5), mk("A", "X", 5)}); err != nil || got != 1 {
			t.Errorf("%v swapped orientation: %d combinations, %v", op, got, err)
		}
		if got, err := joined(op, [2]string{"B", "A"}, [2]*comb{mk("B", "Y", 6), mk("A", "X", 5)}); err != nil || got != 0 {
			t.Errorf("%v swapped non-match: %d combinations, %v", op, got, err)
		}
		// A predicate whose aliases the inputs do not split is refused.
		if _, err := joined(op, [2]string{"A", "C"}, [2]*comb{mk("A", "X", 1), mk("C", "Z", 2)}); err == nil ||
			!strings.Contains(err.Error(), "does not span two branches") {
			t.Errorf("%v unrelated pair: %v, want a refusal", op, err)
		}
	}
}

// compileSel1 compiles one selection over a single-alias layout for the
// path/term variant tests below.
func compileSel1(t *testing.T, p query.Predicate) compiledSel {
	t.Helper()
	layout := &aliasLayout{
		slots:   map[string]int{"A": 0},
		aliases: []string{"A"},
		weights: []float64{1},
	}
	sels, err := compileSelections([]query.Predicate{p}, layout)
	if err != nil {
		t.Fatal(err)
	}
	return sels[0]
}

func TestCompiledSelPathVariants(t *testing.T) {
	tu := types.NewTuple(1)
	tu.Set("A", types.Int(5))
	tu.AddGroup("G", types.SubTuple{"S": types.Int(1)})
	tu.AddGroup("G", types.SubTuple{"S": types.Int(9)})
	ex := &executor{}
	eval := func(path string, op types.Op, rhs types.Value) (bool, error) {
		cs := compileSel1(t, query.Predicate{
			Left: query.PathRef{Alias: "A", Path: path}, Op: op,
			Right: query.Term{Kind: query.TermConst, Const: rhs},
		})
		return cs.eval(ex, &comb{comps: []*types.Tuple{tu}})
	}
	// Atomic path.
	ok, err := eval("A", types.OpGt, types.Int(3))
	if err != nil || !ok {
		t.Errorf("atomic: %v %v", ok, err)
	}
	// Group path: existential over sub-tuples.
	ok, err = eval("G.S", types.OpGe, types.Int(8))
	if err != nil || !ok {
		t.Errorf("group existential: %v %v", ok, err)
	}
	ok, err = eval("G.S", types.OpGt, types.Int(100))
	if err != nil || ok {
		t.Errorf("group none: %v %v", ok, err)
	}
	// Dotted path on a non-group resolves to null → false.
	ok, err = eval("X.Y", types.OpEq, types.Int(1))
	if err != nil || ok {
		t.Errorf("missing path: %v %v", ok, err)
	}
	// Type error surfaces.
	if _, err := eval("A", types.OpLt, types.String("x")); err == nil {
		t.Error("type mismatch silent")
	}
}

func TestCompiledSelTermVariants(t *testing.T) {
	ex := &executor{run: RunOptions{Inputs: map[string]types.Value{"INPUT1": types.Int(7)}}}
	c := &comb{comps: []*types.Tuple{types.NewTuple(1).Set("X", types.Int(3))}}
	rhs := func(term query.Term) (types.Value, error) {
		cs := compileSel1(t, query.Predicate{
			Left: query.PathRef{Alias: "A", Path: "X"}, Op: types.OpEq, Right: term,
		})
		return cs.rhs(ex, c)
	}
	v, err := rhs(query.Term{Kind: query.TermConst, Const: types.Int(1)})
	if err != nil || v.IntVal() != 1 {
		t.Errorf("const: %v %v", v, err)
	}
	v, err = rhs(query.Term{Kind: query.TermInput, Input: "INPUT1"})
	if err != nil || v.IntVal() != 7 {
		t.Errorf("input: %v %v", v, err)
	}
	if _, err := rhs(query.Term{Kind: query.TermInput, Input: "INPUT9"}); err == nil {
		t.Error("unbound input silent")
	}
	v, err = rhs(query.Term{Kind: query.TermPath,
		Path: query.PathRef{Alias: "A", Path: "X"}})
	if err != nil || v.IntVal() != 3 {
		t.Errorf("path: %v %v", v, err)
	}
}

func TestEngineInvokerAccessor(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewMovieWorld(reg, synth.MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	e := New(world.Services(), nil)
	if _, ok := e.Invoker().Lane("M"); !ok {
		t.Error("Lane(M) missing")
	}
	if _, ok := e.Invoker().Lane("Z"); ok {
		t.Error("Lane(Z) found")
	}
	var _ service.Service // keep the service import honest
}
