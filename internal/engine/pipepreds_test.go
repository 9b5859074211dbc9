package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"seco/internal/cost"
	"seco/internal/mart"
	"seco/internal/optimizer"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/service"
	"seco/internal/synth"
	"seco/internal/types"
)

// This file tests which join conditions a service node still checks per
// candidate: none its own pipe bindings realize, every other one.

// servedConftravel optimizes the travel example over the seed-7 world, as
// a server answering it does.
func servedConftravel(t testing.TB, k int) (*optimizer.Result, *synth.TravelWorld) {
	t.Helper()
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	q, err := query.TravelExample(reg)
	if err != nil {
		t.Fatal(err)
	}
	world, err := synth.NewTravelWorld(reg, synth.TravelConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	stats := map[string]service.Stats{}
	for alias, svc := range world.Services() {
		stats[alias] = svc.Stats()
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: k, Metric: cost.RequestResponse{}, Stats: stats, FixedInterfaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, world
}

// TestPipeRealizedConditionsCompileAway: on the served conftravel chain
// C → W → F → H, every join condition of W, F and H is an equality their
// pipe bindings realize, so none is compiled into a per-candidate check.
// The plan itself keeps them.
func TestPipeRealizedConditionsCompileAway(t *testing.T) {
	res, world := servedConftravel(t, 5)
	prep, err := New(world.Services(), nil).Prepare(res.Annotated,
		PrepareOptions{Weights: res.Query.Weights, TargetK: 5})
	if err != nil {
		t.Fatal(err)
	}
	piped := map[string]bool{}
	for i := range prep.nodes {
		pn := &prep.nodes[i]
		if pn.svc == nil || pn.n.Alias == "C" {
			continue
		}
		piped[pn.n.Alias] = true
		if len(pn.n.JoinPreds) == 0 || len(pn.svc.pipes) == 0 {
			t.Errorf("%s: %d join predicates, %d pipes in the plan; want both", pn.n.Alias,
				len(pn.n.JoinPreds), len(pn.svc.pipes))
		}
		if len(pn.svc.preds) != 0 {
			t.Errorf("%s: %d compiled pair predicates, want none", pn.n.Alias, len(pn.svc.preds))
		}
	}
	if len(piped) != 3 || !piped["W"] || !piped["F"] || !piped["H"] {
		t.Errorf("piped nodes %v, want W, F and H (topology %v)", piped, res.Topology)
	}
}

// TestPipeResidueConditionsStay compiles one condition at a time on a
// piped node Y bound q ← X.p, G.s ← X.r and k ← X.H.m (all under =) and
// ge ← X.p (under >=): only an equality both of whose paths are atomic,
// naming exactly a binding's input path and its source, compiles away, in
// either orientation.
func TestPipeResidueConditionsStay(t *testing.T) {
	ref := func(alias, path string) query.PathRef { return query.PathRef{Alias: alias, Path: path} }
	bind := func(path string, op types.Op, from query.PathRef) query.InputBinding {
		return query.InputBinding{Path: path, Source: query.BindingSource{Kind: query.BindJoin, Op: op, From: from}}
	}
	cond := func(l query.PathRef, op types.Op, r query.PathRef) query.Predicate {
		return query.Predicate{Left: l, Op: op, Right: query.Term{Kind: query.TermPath, Path: r}}
	}
	bindings := []query.InputBinding{
		bind("G.s", types.OpEq, ref("X", "r")),
		bind("ge", types.OpGe, ref("X", "p")),
		bind("k", types.OpEq, ref("X", "H.m")),
		bind("q", types.OpEq, ref("X", "p")),
	}
	layout := &aliasLayout{slots: map[string]int{"X": 0, "Y": 1, "Z": 2}, aliases: []string{"X", "Y", "Z"}}
	compile := func(preds ...query.Predicate) []svcPred {
		t.Helper()
		n := &plan.Node{ID: "Y", Kind: plan.KindService, Alias: "Y", Bindings: bindings, JoinPreds: preds}
		sps, err := compileSvcPreds(n, layout)
		if err != nil {
			t.Fatal(err)
		}
		return sps
	}
	for _, c := range []struct {
		name     string
		pred     query.Predicate
		realized bool
	}{
		{"self left", cond(ref("Y", "q"), types.OpEq, ref("X", "p")), true},
		{"self right", cond(ref("X", "p"), types.OpEq, ref("Y", "q")), true},
		{"non-equality operator", cond(ref("Y", "q"), types.OpGe, ref("X", "p")), false},
		{"binding under >=", cond(ref("Y", "ge"), types.OpEq, ref("X", "p")), false},
		{"dotted input path", cond(ref("Y", "G.s"), types.OpEq, ref("X", "r")), false},
		{"dotted source path", cond(ref("Y", "k"), types.OpEq, ref("X", "H.m")), false},
		{"other alias than the source", cond(ref("Y", "q"), types.OpEq, ref("Z", "p")), false},
		{"other path than the source", cond(ref("Y", "q"), types.OpEq, ref("X", "r")), false},
		{"two output attributes", cond(ref("Y", "out"), types.OpEq, ref("X", "out")), false},
	} {
		if got := len(compile(c.pred)) == 0; got != c.realized {
			t.Errorf("%s (%v): compiled away = %v, want %v", c.name, c.pred, got, c.realized)
		}
	}

	// A realized condition leaves its pair's residue: X.p = Y.q and
	// X.out = Y.out compile to one predicate testing only the latter.
	sps := compile(cond(ref("X", "p"), types.OpEq, ref("Y", "q")), cond(ref("X", "out"), types.OpEq, ref("Y", "out")))
	if len(sps) != 1 {
		t.Fatalf("%d pair predicates, want 1", len(sps))
	}
	x, y := types.NewTuple(1), types.NewTuple(1)
	x.Set("p", types.Int(1)).Set("out", types.Int(5))
	y.Set("q", types.Int(2)).Set("out", types.Int(5))
	if ok, err := sps[0].match(y, x); err != nil || !ok {
		t.Errorf("residue with q ≠ p and equal outs: match = %v, %v; want true", ok, err)
	}
	y.Set("out", types.Int(6))
	if ok, err := sps[0].match(y, x); err != nil || ok {
		t.Errorf("residue with different outs: match = %v, %v; want false", ok, err)
	}
}

// pipeResidueWorld is a parent P (Seed input) and a child C (Key input)
// joined by C.Key = P.Id, which the pipe realizes, and C.Tag = P.Tag,
// which it does not: about two in three piped child rows fail the latter.
func pipeResidueWorld(t *testing.T) (*mart.Registry, map[string]*service.Table, map[string]service.Stats) {
	t.Helper()
	reg := mart.NewRegistry()
	rng := rand.New(rand.NewSource(3))
	tables := map[string]*service.Table{}
	stats := map[string]service.Stats{}
	for _, s := range []struct {
		alias, input string
		rows         int
	}{{"P", "Seed", 12}, {"C", "Key", 60}} {
		m := &mart.Mart{Name: s.alias + "mart", Attributes: []mart.Attribute{
			{Name: "Id", Kind: types.KindInt},
			{Name: "Key", Kind: types.KindInt},
			{Name: "Seed", Kind: types.KindInt},
			{Name: "Tag", Kind: types.KindInt},
			{Name: "Val", Kind: types.KindFloat},
		}}
		if err := reg.AddMart(m); err != nil {
			t.Fatal(err)
		}
		si, err := mart.NewInterface(s.alias+"if", m, map[string]mart.Adornment{s.input: mart.Input, "Val": mart.Ranked})
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.AddInterface(si); err != nil {
			t.Fatal(err)
		}
		st := service.Stats{ChunkSize: 5, AvgCardinality: float64(s.rows), Scoring: service.Linear(s.rows),
			Latency: 50 * time.Millisecond, CostPerCall: 1}
		tab, err := service.NewTable(si, st)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < s.rows; r++ {
			score := st.Scoring.Score(r)
			tu := types.NewTuple(score)
			tu.Set("Id", types.Int(int64(r))).Set("Seed", types.Int(1)).
				Set("Tag", types.Int(int64(rng.Intn(3)))).Set("Val", types.Float(score))
			if s.alias == "P" {
				tu.Set("Key", types.Int(-1))
			} else {
				tu.Set("Key", types.Int(int64(rng.Intn(12))))
			}
			tab.Add(tu)
		}
		tables[s.alias], stats[s.alias] = tab, st
	}
	return reg, tables, stats
}

// TestPipeChecksUnrealizedEquality runs a pipe whose node also carries an
// equality its bindings do not realize, against the brute-force semantics:
// the pipe may skip C.Key = P.Id, never C.Tag = P.Tag.
func TestPipeChecksUnrealizedEquality(t *testing.T) {
	reg, tables, stats := pipeResidueWorld(t)
	q, err := query.Parse(`PipeResidue:
		select Pif as P, Cif as C
		where P.Seed = INPUT1 and C.Key = P.Id and C.Tag = P.Tag
		rank 0.5 P, 0.5 C`)
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Analyze(reg); err != nil {
		t.Fatal(err)
	}
	inputs := map[string]types.Value{"INPUT1": types.Int(1)}
	ref := referenceEvaluate(t, q, tables, inputs)
	if len(ref) == 0 {
		t.Fatal("the world has no combination; the test would check nothing")
	}
	res, err := optimizer.Optimize(q, reg, optimizer.Options{
		K: 5, Metric: cost.RequestResponse{}, Stats: stats, FixedInterfaces: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c, ok := res.Plan.Node("C"); !ok || !c.PipedFrom() || len(c.JoinPreds) != 2 {
		t.Fatalf("plan %v: want C piped from P with both join conditions", res.Topology)
	}
	a, err := plan.Annotate(res.Plan, map[string]int{"P": 50, "C": 50})
	if err != nil {
		t.Fatal(err)
	}
	services := map[string]service.Service{"P": tables["P"], "C": tables["C"]}
	e := New(services, nil)
	for _, k := range []int{0, 1, 5} {
		run, err := e.Execute(context.Background(), a, Options{Inputs: inputs, Weights: q.Weights, TargetK: k})
		if err != nil {
			t.Fatal(err)
		}
		var got []scoredSig
		for _, c := range run.Combinations {
			sig := engineComboSig(c)
			if _, ok := ref[sig]; !ok {
				t.Errorf("K=%d: %s (P.Tag %v, C.Tag %v) is outside the reference semantics", k, sig,
					c.Components["P"].Get("Tag"), c.Components["C"].Get("Tag"))
			}
			got = append(got, scoredSig{sig, c.Score})
		}
		want := referenceTopK(ref, len(ref))
		if k > 0 {
			want = referenceTopK(ref, k)
		}
		sameTopK(t, fmt.Sprintf("K=%d: engine vs reference", k), got, want)
	}
}
