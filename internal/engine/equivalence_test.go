package engine

import (
	"context"
	"fmt"
	"sort"
	"testing"

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

// matchAcross must evaluate a pair predicate regardless of which side of
// the join carries the predicate's left alias.
func TestMatchAcrossOrientation(t *testing.T) {
	layout := &aliasLayout{
		slots:   map[string]int{"A": 0, "B": 1, "C": 2},
		aliases: []string{"A", "B", "C"},
		weights: []float64{1, 1, 1},
	}
	mk := func(alias, attr string, v int64) *comb {
		tu := types.NewTuple(1)
		tu.Set(attr, types.Int(v))
		comps := make([]*types.Tuple, layout.width())
		comps[layout.slots[alias]] = tu
		return &comb{comps: comps}
	}
	preds, err := compileJoinPreds(&plan.Node{JoinPreds: []query.Predicate{{
		Left: query.PathRef{Alias: "A", Path: "X"},
		Right: query.Term{Kind: query.TermPath,
			Path: query.PathRef{Alias: "B", Path: "Y"}},
	}}}, layout)
	if err != nil {
		t.Fatal(err)
	}
	// Natural orientation: A on the left side.
	ok, err := matchAcross(mk("A", "X", 5), mk("B", "Y", 5), preds)
	if err != nil || !ok {
		t.Errorf("natural orientation: %v %v", ok, err)
	}
	// Swapped: A arrives on the right side of the join.
	ok, err = matchAcross(mk("B", "Y", 5), mk("A", "X", 5), preds)
	if err != nil || !ok {
		t.Errorf("swapped orientation: %v %v", ok, err)
	}
	ok, err = matchAcross(mk("B", "Y", 6), mk("A", "X", 5), preds)
	if err != nil || ok {
		t.Errorf("swapped non-match: %v %v", ok, err)
	}
	// Predicate whose aliases are not split across the sides is skipped.
	ok, err = matchAcross(mk("A", "X", 1), mk("C", "Z", 2), preds)
	if err != nil || !ok {
		t.Errorf("unrelated pair: %v %v", ok, err)
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
