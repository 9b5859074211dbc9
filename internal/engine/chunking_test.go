package engine

import (
	"math"
	"testing"

	"seco/internal/mart"
	"seco/internal/plan"
	"seco/internal/query"
	"seco/internal/types"
)

func scored(score float64) *comb {
	return &comb{score: score, comps: []*types.Tuple{types.NewTuple(score)}}
}

func TestRechunk(t *testing.T) {
	var items []*comb
	for i := 0; i < 7; i++ {
		items = append(items, scored(float64(7-i)))
	}
	chunks := rechunk(items, 3)
	if len(chunks) != 3 || len(chunks[0]) != 3 || len(chunks[1]) != 3 || len(chunks[2]) != 1 {
		t.Fatalf("rechunk(7, 3) sizes: %d chunks", len(chunks))
	}
	if chunks[2][0] != items[6] {
		t.Error("short tail chunk holds the wrong item")
	}
	if got := rechunk(items, 0); len(got) != 1 || len(got[0]) != 7 {
		t.Errorf("non-positive size must fall back to DefaultRechunkSize, got %d chunks", len(got))
	}
	if got := rechunk[*comb](nil, 3); got != nil {
		t.Errorf("rechunk(nil) = %v", got)
	}
}

func TestChunkTopAndMaxScore(t *testing.T) {
	chunk := []*comb{scored(0.9), scored(0.4), scored(0.7)}
	if chunkTop(chunk) != 0.9 {
		t.Errorf("chunkTop = %v, want the first (best-ranked) score", chunkTop(chunk))
	}
	if chunkTop(nil) != 0 {
		t.Errorf("chunkTop(empty) = %v", chunkTop(nil))
	}
	if maxScore(chunk) != 0.9 {
		t.Errorf("maxScore = %v", maxScore(chunk))
	}
	if !math.IsInf(maxScore(nil), -1) {
		t.Errorf("maxScore(empty) = %v, want -Inf", maxScore(nil))
	}
}

func TestChunkSizeOf(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := plan.RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := plan.Annotate(p, plan.Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	c := &compiler{ann: a}
	var chunkedID, inputID string
	for _, id := range p.NodeIDs() {
		n, _ := p.Node(id)
		switch {
		case n.Kind == plan.KindService && n.Stats.Chunked() && chunkedID == "":
			chunkedID = id
		case n.Kind == plan.KindInput:
			inputID = id
		}
	}
	if chunkedID == "" || inputID == "" {
		t.Fatal("fixture plan lacks a chunked service or input node")
	}
	n, _ := p.Node(chunkedID)
	if got := c.chunkSizeOf(chunkedID); got != n.Stats.ChunkSize {
		t.Errorf("chunked service: size %d, want the service's ChunkSize %d", got, n.Stats.ChunkSize)
	}
	if got := c.chunkSizeOf(inputID); got != DefaultRechunkSize {
		t.Errorf("non-service predecessor: size %d, want default %d", got, DefaultRechunkSize)
	}
	c.opts.DefaultChunkSize = 4
	if got := c.chunkSizeOf(inputID); got != 4 {
		t.Errorf("override ignored: size %d, want 4", got)
	}
}

func TestGroupJoinPredsPairsAndSkips(t *testing.T) {
	n := &plan.Node{JoinPreds: []query.Predicate{
		{Left: query.PathRef{Alias: "T", Path: "Movies.Title"}, Op: types.OpEq,
			Right: query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "M", Path: "Title"}}},
		{Left: query.PathRef{Alias: "T", Path: "Movies.Lang"}, Op: types.OpEq,
			Right: query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "M", Path: "Language"}}},
		{Left: query.PathRef{Alias: "R", Path: "UAddress"}, Op: types.OpEq,
			Right: query.Term{Kind: query.TermPath, Path: query.PathRef{Alias: "T", Path: "TAddress"}}},
		// Non-path right-hand sides are selection-shaped, not join edges.
		{Left: query.PathRef{Alias: "T", Path: "City"}, Op: types.OpEq,
			Right: query.Term{Kind: query.TermConst, Const: types.String("Rome")}},
	}}
	preds := groupJoinPreds(n.JoinPreds)
	if len(preds) != 2 {
		t.Fatalf("grouped %d pairs, want 2: %v", len(preds), preds)
	}
	// Pairs come back in deterministic (left, right) alias order.
	if preds[0].leftAlias != "R" || preds[0].rightAlias != "T" || len(preds[0].pred.Conds) != 1 {
		t.Fatalf("R|T pair missing or misplaced: %+v", preds)
	}
	if preds[1].leftAlias != "T" || preds[1].rightAlias != "M" || len(preds[1].pred.Conds) != 2 {
		t.Fatalf("T|M pair missing or not merged: %+v", preds)
	}
}

// The join operator merges branch rows that share upstream components:
// shared slots must hold the identical tuple.
func TestMergeBranchesSharedComponents(t *testing.T) {
	layout := &aliasLayout{
		slots:   map[string]int{"C": 0, "F": 1, "H": 2},
		aliases: []string{"C", "F", "H"},
		weights: []float64{1, 1, 1},
	}
	g := &graph{ex: &executor{Prepared: &Prepared{layout: layout}}}
	s := &multiJoinOp{ex: g.ex, arena: g.newArena(), branches: make([]joinBranch, 2)}
	defer s.arena.release()
	merge := func(l, r *comb) (*comb, bool) {
		s.branches[0].assign, s.branches[1].assign = l, r
		return s.mergeMulti()
	}
	shared := types.NewTuple(0.5)
	left := &comb{comps: []*types.Tuple{shared, types.NewTuple(0.6), nil}}
	right := &comb{comps: []*types.Tuple{shared, nil, types.NewTuple(0.7)}}
	merged, ok := merge(left, right)
	if !ok {
		t.Fatal("shared-ancestor merge failed")
	}
	n := 0
	for _, c := range merged.comps {
		if c != nil {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("merged comb has %d components, want 3", n)
	}
	if merged.comps[0] != shared {
		t.Error("shared component lost its tuple identity")
	}
	if got := merged.score; math.Abs(got-1.8) > 1e-9 {
		t.Errorf("merged score = %v, want re-ranked 1.8", got)
	}
	// The same alias bound to a different tuple stems from a different
	// upstream row: the pair must not join.
	other := &comb{comps: []*types.Tuple{types.NewTuple(0.5), nil, types.NewTuple(0.7)}}
	if _, ok := merge(left, other); ok {
		t.Error("divergent shared components merged")
	}
}
