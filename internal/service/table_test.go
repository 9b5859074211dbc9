package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seco/internal/mart"
	"seco/internal/types"
)

// movieInterface builds a small search interface for table tests:
// Movie(Title^O, Score^R, Genres.Genre^I, Openings.Country^I,
// Openings.Date^I).
func movieInterface(t *testing.T) *mart.Interface {
	t.Helper()
	m := &mart.Mart{Name: "Movie", Attributes: []mart.Attribute{
		{Name: "Title", Kind: types.KindString},
		{Name: "Score", Kind: types.KindFloat},
		{Name: "Genres", Sub: []mart.Attribute{{Name: "Genre", Kind: types.KindString}}},
		{Name: "Openings", Sub: []mart.Attribute{
			{Name: "Country", Kind: types.KindString},
			{Name: "Date", Kind: types.KindDate},
		}},
	}}
	si, err := mart.NewInterface("Movie1", m, map[string]mart.Adornment{
		"Score":            mart.Ranked,
		"Genres.Genre":     mart.Input,
		"Openings.Country": mart.Input,
		"Openings.Date":    mart.Input,
	})
	if err != nil {
		t.Fatal(err)
	}
	return si
}

func movieTuple(title string, score float64, genre, country string, date time.Time) *types.Tuple {
	tu := types.NewTuple(score)
	tu.Set("Title", types.String(title)).Set("Score", types.Float(score))
	tu.AddGroup("Genres", types.SubTuple{"Genre": types.String(genre)})
	tu.AddGroup("Openings", types.SubTuple{
		"Country": types.String(country),
		"Date":    types.Date(date),
	})
	return tu
}

func newMovieTable(t *testing.T, chunkSize int) *Table {
	t.Helper()
	tab, err := NewTable(movieInterface(t), Stats{
		AvgCardinality: 3, ChunkSize: chunkSize, Scoring: Linear(100),
	})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetMatchOp("Openings.Date", types.OpGe)
	day := time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)
	tab.Add(
		movieTuple("A", 0.9, "Comedy", "Italy", day),
		movieTuple("B", 0.8, "Comedy", "Italy", day.AddDate(0, 0, 5)),
		movieTuple("C", 0.7, "Drama", "Italy", day),
		movieTuple("D", 0.95, "Comedy", "France", day),
		movieTuple("E", 0.6, "Comedy", "Italy", day.AddDate(0, -1, 0)),
	)
	return tab
}

// movieBinding is the canonical movie binding as a map, for tests that
// edit it before building the Input.
func movieBinding() map[string]types.Value {
	return map[string]types.Value{
		"Genres.Genre":     types.String("Comedy"),
		"Openings.Country": types.String("Italy"),
		"Openings.Date":    types.Date(time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)),
	}
}

func movieInput() Input { return NewInput(movieBinding()) }

func drain(t *testing.T, inv Invocation) []*types.Tuple {
	t.Helper()
	var all []*types.Tuple
	for {
		c, err := inv.Fetch(context.Background())
		if errors.Is(err, ErrExhausted) {
			return all
		}
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, c.Tuples...)
		if len(c.Tuples) == 0 {
			return all
		}
	}
}

func TestTableFiltersAndRanks(t *testing.T) {
	tab := newMovieTable(t, 0)
	inv, err := tab.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, inv)
	// Matching: A (0.9) and B (0.8). C is Drama, D is France, E opened
	// before the date bound. Order: descending score.
	if len(got) != 2 {
		t.Fatalf("got %d tuples, want 2: %v", len(got), got)
	}
	if got[0].Get("Title").Str() != "A" || got[1].Get("Title").Str() != "B" {
		t.Errorf("order: %v, %v", got[0].Get("Title"), got[1].Get("Title"))
	}
}

func TestTableGroupSemanticsSingleSubTuple(t *testing.T) {
	// A movie whose Country and Date bindings are satisfied only by
	// different sub-tuples must NOT match (Section 3.1 semantics).
	tab, err := NewTable(movieInterface(t), Stats{Scoring: Constant(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	tab.SetMatchOp("Openings.Date", types.OpGe)
	day := time.Date(2009, 7, 1, 0, 0, 0, 0, time.UTC)
	split := movieTuple("Split", 0.5, "Comedy", "Italy", day.AddDate(0, -2, 0))
	split.AddGroup("Openings", types.SubTuple{
		"Country": types.String("France"),
		"Date":    types.Date(day.AddDate(0, 1, 0)),
	})
	tab.Add(split)
	inv, err := tab.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, inv); len(got) != 0 {
		t.Errorf("split tuple matched: %v", got)
	}
}

func TestTableChunking(t *testing.T) {
	tab := newMovieTable(t, 1)
	inv, err := tab.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	c0, err := inv.Fetch(context.Background())
	if err != nil || c0.Index != 0 || len(c0.Tuples) != 1 {
		t.Fatalf("chunk0 = %+v, %v", c0, err)
	}
	c1, err := inv.Fetch(context.Background())
	if err != nil || c1.Index != 1 || len(c1.Tuples) != 1 {
		t.Fatalf("chunk1 = %+v, %v", c1, err)
	}
	if _, err := inv.Fetch(context.Background()); !errors.Is(err, ErrExhausted) {
		t.Fatalf("third fetch err = %v, want ErrExhausted", err)
	}
}

func TestTableMissingInputRejected(t *testing.T) {
	tab := newMovieTable(t, 0)
	in := movieBinding()
	delete(in, "Genres.Genre")
	if _, err := tab.Invoke(context.Background(), NewInput(in)); err == nil {
		t.Error("Invoke without a bound input succeeded")
	}
	in["Genres.Genre"] = types.Null
	if _, err := tab.Invoke(context.Background(), NewInput(in)); err == nil {
		t.Error("Invoke with null input succeeded")
	}
}

func TestTableEmptyResultUnchunked(t *testing.T) {
	tab := newMovieTable(t, 0)
	in := movieBinding()
	in["Genres.Genre"] = types.String("Western")
	inv, err := tab.Invoke(context.Background(), NewInput(in))
	if err != nil {
		t.Fatal(err)
	}
	c, err := inv.Fetch(context.Background())
	if err != nil || len(c.Tuples) != 0 {
		t.Fatalf("first fetch = %+v, %v; want empty chunk", c, err)
	}
	if _, err := inv.Fetch(context.Background()); !errors.Is(err, ErrExhausted) {
		t.Fatalf("second fetch err = %v", err)
	}
}

func TestTableEmptyResultChunked(t *testing.T) {
	tab := newMovieTable(t, 2)
	in := movieBinding()
	in["Genres.Genre"] = types.String("Western")
	inv, err := tab.Invoke(context.Background(), NewInput(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(context.Background()); !errors.Is(err, ErrExhausted) {
		t.Fatalf("fetch err = %v, want ErrExhausted", err)
	}
}

func TestTableContextCancelled(t *testing.T) {
	tab := newMovieTable(t, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tab.Invoke(ctx, movieInput()); err == nil {
		t.Error("Invoke on cancelled context succeeded")
	}
	inv, err := tab.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(ctx); err == nil {
		t.Error("Fetch on cancelled context succeeded")
	}
}

func TestTableInputClone(t *testing.T) {
	in := movieInput()
	c := in.Clone()
	c[0].Value = types.String("Horror")
	if v, _ := in.Get("Genres.Genre"); v.Str() != "Comedy" {
		t.Error("Clone shares storage")
	}
}

// NewInput sorts the map's paths, and Get finds a bound path and only a
// bound path.
func TestNewInputSortedAndGet(t *testing.T) {
	in := movieInput()
	want := []string{"Genres.Genre", "Openings.Country", "Openings.Date"}
	if len(in) != len(want) {
		t.Fatalf("NewInput = %v", in)
	}
	for i, b := range in {
		if b.Path != want[i] {
			t.Errorf("binding %d path = %q, want %q", i, b.Path, want[i])
		}
	}
	if v, ok := in.Get("Openings.Country"); !ok || v.Str() != "Italy" {
		t.Errorf("Get(Openings.Country) = %v, %v", v, ok)
	}
	if v, ok := in.Get("Title"); ok || !v.IsNull() {
		t.Errorf("Get(Title) = %v, %v; want unbound", v, ok)
	}
}

func TestNewTableRejectsBadStats(t *testing.T) {
	if _, err := NewTable(movieInterface(t), Stats{AvgCardinality: -1}); err == nil {
		t.Error("negative cardinality accepted")
	}
	if _, err := NewTable(movieInterface(t), Stats{ChunkSize: -2}); err == nil {
		t.Error("negative chunk size accepted")
	}
}

func TestStatsClassification(t *testing.T) {
	if !(Stats{AvgCardinality: 0.5}).Selective() {
		t.Error("0.5 not selective")
	}
	if (Stats{AvgCardinality: 2}).Selective() {
		t.Error("2 selective")
	}
	if !(Stats{ChunkSize: 10}).Chunked() {
		t.Error("chunked not detected")
	}
	if (Stats{}).Chunked() {
		t.Error("unchunked detected as chunked")
	}
}

func TestCounterCountsAndDelays(t *testing.T) {
	tab := newMovieTable(t, 1)
	var waited time.Duration
	// Give the service a published latency so the delay hook observes it.
	tab.stats.Latency = 7 * time.Millisecond
	c := NewCounter(tab, func(d time.Duration) { waited += d })
	inv, err := c.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := inv.Fetch(context.Background()); err != nil {
			break
		}
	}
	if got := c.Invocations(); got != 1 {
		t.Errorf("Invocations = %d", got)
	}
	if got := c.Fetches(); got != 2 {
		t.Errorf("Fetches = %d, want 2", got)
	}
	if got := c.Tuples(); got != 2 {
		t.Errorf("Tuples = %d, want 2", got)
	}
	if waited != 14*time.Millisecond {
		t.Errorf("delay hook saw %v, want 14ms", waited)
	}
	if c.Interface() != tab.Interface() || c.Stats().ChunkSize != 1 {
		t.Error("Counter does not forward Interface/Stats")
	}
	c.Reset()
	if c.Invocations() != 0 || c.Fetches() != 0 || c.Tuples() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestCounterInvokeErrorNotCounted(t *testing.T) {
	tab := newMovieTable(t, 1)
	c := NewCounter(tab, nil)
	if _, err := c.Invoke(context.Background(), Input{}); err == nil {
		t.Fatal("want error")
	}
	if c.Invocations() != 0 {
		t.Error("failed invoke counted")
	}
}

func TestFuncInvocation(t *testing.T) {
	calls := 0
	inv := FuncInvocation(func(ctx context.Context) (Chunk, error) {
		calls++
		return Chunk{Index: calls - 1}, nil
	})
	c, err := inv.Fetch(context.Background())
	if err != nil || c.Index != 0 || calls != 1 {
		t.Errorf("FuncInvocation: %+v %v %d", c, err, calls)
	}
}

// referenceChunks is the substrate's specification, kept as the scan it
// used to run on every call: check the binding, walk every row in load
// order through every bound path (atomic paths directly, the paths of one
// repeating group against a single sub-tuple), stable-sort the survivors by
// decreasing score and cut them into chunks. Paths are taken in sorted
// order, and an atomic binding that cannot be compared with some row of its
// column is an error whatever the other columns filter out.
func referenceChunks(t *Table, in Input) ([]Chunk, error) {
	if err := CheckInput(t.si, in); err != nil {
		return nil, err
	}
	op := func(p string) types.Op {
		if op, ok := t.matchOps[p]; ok {
			return op
		}
		return types.OpEq
	}
	vals := make(map[string]types.Value, len(in))
	paths := make([]string, 0, len(in))
	for _, b := range in {
		vals[b.Path] = b.Value
		paths = append(paths, b.Path)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if strings.Contains(p, ".") {
			continue
		}
		for _, row := range t.rows {
			if _, err := op(p).Eval(row.Get(p), vals[p]); err != nil {
				return nil, fmt.Errorf("service %s: matching %q: %w", t.si.Name, p, err)
			}
		}
	}
	var matches []*types.Tuple
rows:
	for _, row := range t.rows {
		for i, p := range paths {
			g, _, dotted := strings.Cut(p, ".")
			if !dotted {
				if ok, _ := op(p).Eval(row.Get(p), vals[p]); !ok {
					continue rows
				}
				continue
			}
			if i > 0 && strings.HasPrefix(paths[i-1], g+".") {
				continue // the group was settled at its first path
			}
			found := false
			for _, st := range row.Groups[g] {
				all := true
				for _, q := range paths[i:] {
					qg, sub, _ := strings.Cut(q, ".")
					if qg != g {
						break
					}
					if ok, err := op(q).Eval(st[sub], vals[q]); err != nil || !ok {
						all = false
						break
					}
				}
				if all {
					found = true
					break
				}
			}
			if !found {
				continue rows
			}
		}
		matches = append(matches, row)
	}
	sort.SliceStable(matches, func(i, j int) bool { return matches[i].Score > matches[j].Score })
	size := t.stats.ChunkSize
	if size <= 0 {
		return []Chunk{{Index: 0, Tuples: matches}}, nil
	}
	var chunks []Chunk
	for lo := 0; lo < len(matches); lo += size {
		hi := lo + size
		if hi > len(matches) {
			hi = len(matches)
		}
		chunks = append(chunks, Chunk{Index: len(chunks), Tuples: matches[lo:hi]})
	}
	return chunks, nil
}

// fetchAll drains an invocation chunk by chunk.
func fetchAll(t *testing.T, inv Invocation) []Chunk {
	t.Helper()
	var chunks []Chunk
	for {
		c, err := inv.Fetch(context.Background())
		if errors.Is(err, ErrExhausted) {
			return chunks
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks = append(chunks, c)
	}
}

// randomWorld draws a table and a stream of bindings for the differential
// test: a random subset of seven paths adorned as input, range and like
// operators on some of them, small value domains so that keys, scores and
// nulls collide, and bindings that now and then carry a key beyond the
// interface's inputs, a negative zero, a NaN or a value of the wrong kind.
// A quarter of the worlds adorn only atomic equality paths, whose
// invocations the composite list answers.
type randomWorld struct {
	rng *rand.Rand
	tab *Table
}

var worldPaths = []string{"A", "B", "C", "D", "G.X", "G.Y", "H.Z"}

func newRandomWorld(t *testing.T, seed int64) *randomWorld {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	allEq := rng.Intn(4) == 0
	m := &mart.Mart{Name: "W", Attributes: []mart.Attribute{
		{Name: "A", Kind: types.KindString},
		{Name: "B", Kind: types.KindFloat},
		{Name: "C", Kind: types.KindInt},
		{Name: "D", Kind: types.KindString},
		{Name: "Out", Kind: types.KindString},
		{Name: "G", Sub: []mart.Attribute{{Name: "X", Kind: types.KindString}, {Name: "Y", Kind: types.KindInt}}},
		{Name: "H", Sub: []mart.Attribute{{Name: "Z", Kind: types.KindString}}},
	}}
	ad := map[string]mart.Adornment{}
	paths := worldPaths
	if allEq {
		paths = []string{"A", "B", "C"}
		ad["A"] = mart.Input
	}
	for _, p := range paths {
		if rng.Intn(2) == 0 {
			ad[p] = mart.Input
		}
	}
	si, err := mart.NewInterface("W1", m, ad)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(si, Stats{ChunkSize: []int{0, 1, 3, 7}[rng.Intn(4)], Scoring: Constant(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	if !allEq && rng.Intn(3) > 0 {
		tab.SetMatchOp("C", types.OpGe)
	}
	tab.SetMatchOp("D", types.OpLike)
	if rng.Intn(2) == 0 {
		tab.SetMatchOp("G.Y", types.OpGe)
	}
	w := &randomWorld{rng: rng, tab: tab}
	tab.Add(w.rows(rng.Intn(60))...)
	return w
}

func (w *randomWorld) str() types.Value {
	return types.String([]string{"ann", "bob", "cy", "Dee"}[w.rng.Intn(4)])
}

// num draws from {0, 1, 2, 3} as an int or the equal float, with the odd
// negative zero and — when wild — NaN.
func (w *randomWorld) num(wild bool) types.Value {
	n := w.rng.Intn(4)
	switch r := w.rng.Intn(20); {
	case wild && r == 0:
		return types.Float(math.NaN())
	case r == 1:
		return types.Float(math.Copysign(0, -1))
	case r < 10:
		return types.Float(float64(n))
	default:
		return types.Int(int64(n))
	}
}

func (w *randomWorld) rows(n int) []*types.Tuple {
	wild := w.rng.Intn(4) == 0
	out := make([]*types.Tuple, n)
	for i := range out {
		tu := types.NewTuple(float64(w.rng.Intn(5)) / 4)
		set := func(attr string, v types.Value) {
			if w.rng.Intn(10) > 0 { // else the attribute stays null
				tu.Set(attr, v)
			}
		}
		set("A", w.str())
		set("B", w.num(wild))
		set("C", w.num(false))
		set("D", w.str())
		set("Out", w.str())
		for k := w.rng.Intn(4); k > 0; k-- {
			st := types.SubTuple{"X": w.str()}
			if w.rng.Intn(10) > 0 {
				st["Y"] = w.num(wild)
			}
			tu.AddGroup("G", st)
		}
		for k := w.rng.Intn(3); k > 0; k-- {
			tu.AddGroup("H", types.SubTuple{"Z": w.str()})
		}
		out[i] = tu
	}
	return out
}

func (w *randomWorld) binding() Input {
	in := map[string]types.Value{}
	bind := func(p string) {
		switch p {
		case "B", "C", "G.Y":
			in[p] = w.num(w.rng.Intn(10) == 0)
		case "D":
			in[p] = types.String([]string{"%n%", "b%", "%y", "dee"}[w.rng.Intn(4)])
		default:
			in[p] = w.str()
		}
		if w.rng.Intn(40) == 0 {
			in[p] = types.Int(1) // the wrong kind for a string path now and then
		}
	}
	for _, p := range w.tab.si.InputPaths() {
		bind(p)
	}
	if w.rng.Intn(4) == 0 {
		extras := append([]string{"Out", "Nope", "Nope.Sub"}, worldPaths...)
		for k := w.rng.Intn(3); k >= 0; k-- {
			if p := extras[w.rng.Intn(len(extras))]; w.tab.si.Adornments[p] != mart.Input {
				bind(p)
			}
		}
	}
	return NewInput(in)
}

// chunkDiff describes the first way got differs from want — chunk count,
// chunk index, length or tuple identity — or returns "" when it does not.
func chunkDiff(got, want []Chunk) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d chunks, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Index != want[i].Index || len(got[i].Tuples) != len(want[i].Tuples) {
			return fmt.Sprintf("chunk %d = #%d with %d tuples, reference #%d with %d",
				i, got[i].Index, len(got[i].Tuples), want[i].Index, len(want[i].Tuples))
		}
		for j := range got[i].Tuples {
			if got[i].Tuples[j] != want[i].Tuples[j] {
				return fmt.Sprintf("chunk %d tuple %d = %v, reference %v", i, j, got[i].Tuples[j], want[i].Tuples[j])
			}
		}
	}
	return ""
}

// fromList reports whether inv serves a segment of the table's composite
// list as it is, with no match list of its own.
func fromList(tab *Table, inv Invocation) bool {
	m, x := inv.(*tableInvocation).matches, tab.index().comp
	if len(m) == 0 || x == nil {
		return false
	}
	for i := range x.rows {
		if &x.rows[i] == &m[0] {
			return true
		}
	}
	return false
}

// diffWorld runs the differential check on one random world: two rounds of
// twelve bindings, rows added between them. It counts the tuples served,
// those of them served straight from the composite list, and the bindings
// refused.
func diffWorld(t *testing.T, seed int64) (served, listed, failed int) {
	w := newRandomWorld(t, seed)
	for round := 0; round < 2; round++ {
		for q := 0; q < 12; q++ {
			in := w.binding()
			want, wantErr := referenceChunks(w.tab, in)
			inv, err := w.tab.Invoke(context.Background(), in)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("seed %d %v: Invoke error %v, reference %v", seed, in, err, wantErr)
			}
			if err != nil {
				failed++
				continue
			}
			got := fetchAll(t, inv)
			if d := chunkDiff(got, want); d != "" {
				t.Fatalf("seed %d %v: %s", seed, in, d)
			}
			n := 0
			for _, c := range got {
				n += len(c.Tuples)
			}
			served += n
			if fromList(w.tab, inv) {
				listed += n
			}
		}
		w.tab.Add(w.rows(1 + w.rng.Intn(10))...)
	}
	return served, listed, failed
}

// TestTableMatchesReferenceScan is the differential test of the indexed
// substrate: Invoke must serve exactly the chunk sequence the reference
// scan-and-sort computes — chunk indexes, tuple identity and order — or
// fail with the same error, also after rows are added behind a first
// Invoke.
func TestTableMatchesReferenceScan(t *testing.T) {
	served, listed, failed := 0, 0, 0
	for seed := int64(1); seed <= 300; seed++ {
		s, l, f := diffWorld(t, seed)
		served, listed, failed = served+s, listed+l, failed+f
	}
	// The generator must reach every outcome, the composite list served as
	// it is among them, or the test shows nothing.
	if served < 1000 || listed < 2000 || failed < 10 {
		t.Errorf("differential test too thin: %d tuples served, %d of them from the composite list, %d bindings refused",
			served, listed, failed)
	}
	t.Logf("%d tuples served, %d of them from the composite list, %d bindings refused", served, listed, failed)
}

// FuzzTableMatchesReferenceScan is the differential test on worlds drawn
// from any seed.
func FuzzTableMatchesReferenceScan(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 4} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { diffWorld(t, seed) })
}

// TestTableChunksDoNotAlias appends to every chunk it fetches, as a caller
// treating chunks as its own would. The appends must reach neither a later
// chunk of the invocation nor the table's storage, which a re-invocation
// and the bindings after it read.
func TestTableChunksDoNotAlias(t *testing.T) {
	poison := types.NewTuple(-1)
	ctx := context.Background()
	multi := 0
	for seed := int64(1); seed <= 300; seed++ {
		w := newRandomWorld(t, seed)
		for q := 0; q < 12; q++ {
			in := w.binding()
			want, err := referenceChunks(w.tab, in)
			if err != nil {
				continue
			}
			if len(want) > 1 {
				multi++
			}
			for pass := 0; pass < 2; pass++ {
				inv, err := w.tab.Invoke(ctx, in)
				if err != nil {
					t.Fatal(err)
				}
				var got []Chunk
				for {
					c, err := inv.Fetch(ctx)
					if errors.Is(err, ErrExhausted) {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, c)
					_ = append(c.Tuples, poison)
				}
				if d := chunkDiff(got, want); d != "" {
					t.Fatalf("seed %d %v, pass %d, after appending to each fetched chunk: %s", seed, in, pass, d)
				}
			}
		}
	}
	if multi < 100 {
		t.Errorf("only %d multi-chunk invocations: the test shows nothing", multi)
	}
}

// TestTableMismatchErrorIsDeterministic pins the kind-mismatch error: a
// string bound against an int column fails the same way on every call,
// even when another column alone would empty the result.
func TestTableMismatchErrorIsDeterministic(t *testing.T) {
	m := &mart.Mart{Name: "Hotel", Attributes: []mart.Attribute{
		{Name: "City", Kind: types.KindString},
		{Name: "Stars", Kind: types.KindInt},
		{Name: "Zone", Kind: types.KindString},
	}}
	si, err := mart.NewInterface("Hotel1", m, map[string]mart.Adornment{
		"City": mart.Input, "Stars": mart.Input, "Zone": mart.Input,
	})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := NewTable(si, Stats{Scoring: Constant(0.5)})
	if err != nil {
		t.Fatal(err)
	}
	tab.Add(
		types.NewTuple(0.5).Set("City", types.String("Rome")).Set("Stars", types.Int(3)).Set("Zone", types.String("N")),
		types.NewTuple(0.5).Set("City", types.String("Oslo")).Set("Stars", types.Int(4)).Set("Zone", types.String("S")),
	)
	in := Input{
		{Path: "City", Value: types.String("Bern")},
		{Path: "Stars", Value: types.String("three")},
		{Path: "Zone", Value: types.String("W")},
	}
	const want = `service Hotel1: matching "Stars": types: cannot compare int with string`
	if _, err := tab.Invoke(context.Background(), in); err == nil || err.Error() != want {
		t.Fatalf("Invoke error = %v, want %s", err, want)
	}
}

// TestTableFirstInvokeConcurrent races eight first invocations on a fresh
// table: the index is built once and every caller is served from it.
func TestTableFirstInvokeConcurrent(t *testing.T) {
	tab := newMovieTable(t, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			inv, err := tab.Invoke(context.Background(), movieInput())
			if err != nil {
				t.Error(err)
				return
			}
			c, err := inv.Fetch(context.Background())
			if err != nil || len(c.Tuples) != 1 || c.Tuples[0].Get("Title").Str() != "A" {
				t.Errorf("first chunk = %+v, %v", c, err)
			}
		}()
	}
	wg.Wait()
}

// flightTable builds the substrate benchmark's table: 800 rows over 20
// cities and 10 days, the shape of the conftravel scenario's Flight1.
func flightTable(tb testing.TB, inputs ...string) *Table {
	tb.Helper()
	m := &mart.Mart{Name: "Flight", Attributes: []mart.Attribute{
		{Name: "From", Kind: types.KindString},
		{Name: "To", Kind: types.KindString},
		{Name: "Day", Kind: types.KindInt},
		{Name: "Price", Kind: types.KindFloat},
		{Name: "Legs", Sub: []mart.Attribute{{Name: "Via", Kind: types.KindString}, {Name: "Carrier", Kind: types.KindString}}},
	}}
	ad := map[string]mart.Adornment{"Price": mart.Ranked}
	for _, p := range inputs {
		ad[p] = mart.Input
	}
	si, err := mart.NewInterface("Flight1", m, ad)
	if err != nil {
		tb.Fatal(err)
	}
	tab, err := NewTable(si, Stats{ChunkSize: 5, Scoring: Linear(800)})
	if err != nil {
		tb.Fatal(err)
	}
	tab.SetMatchOp("Price", types.OpGe)
	rng := rand.New(rand.NewSource(21))
	city := func() types.Value { return types.String(fmt.Sprintf("city%02d", rng.Intn(20))) }
	for i := 0; i < 800; i++ {
		tu := types.NewTuple(rng.Float64())
		tu.Set("From", city()).Set("To", city()).Set("Day", types.Int(int64(rng.Intn(10))))
		tu.Set("Price", types.Float(float64(rng.Intn(400))))
		for k := 0; k < 2; k++ {
			tu.AddGroup("Legs", types.SubTuple{"Via": city(), "Carrier": types.String(fmt.Sprintf("c%d", rng.Intn(5)))})
		}
		tab.Add(tu)
	}
	return tab
}

// flightInput is the equality binding on From, To and Day.
func flightInput() Input {
	return Input{
		{Path: "Day", Value: types.Int(4)},
		{Path: "From", Value: types.String("city03")},
		{Path: "To", Value: types.String("city11")},
	}
}

var benchChunk Chunk

// BenchmarkTableInvoke is the substrate layer's own benchmark: one Invoke
// plus the first Fetch against 800 rows, with nothing above the table.
func BenchmarkTableInvoke(b *testing.B) {
	cases := []struct {
		name   string
		inputs []string
		in     Input
	}{
		{"equality3", []string{"From", "To", "Day"}, flightInput()},
		{"range", []string{"Price"}, Input{{Path: "Price", Value: types.Float(390)}}},
		{"group", []string{"Legs.Via", "Legs.Carrier"}, Input{
			{Path: "Legs.Carrier", Value: types.String("c2")}, {Path: "Legs.Via", Value: types.String("city07")}}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			tab := flightTable(b, c.inputs...)
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inv, err := tab.Invoke(ctx, c.in)
				if err != nil {
					b.Fatal(err)
				}
				if benchChunk, err = inv.Fetch(ctx); err != nil && !errors.Is(err, ErrExhausted) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestTableInvokeAllocationCeiling bounds what an invocation and its first
// fetch allocate once the index exists. An all-equality binding is served
// its composite list as it is: the invocation alone. A binding with a group
// path or a range filters its candidates, every row for a range, into a
// stack buffer copied out once at its size. Nothing is allocated per row
// or per bound path.
func TestTableInvokeAllocationCeiling(t *testing.T) {
	for _, c := range []struct {
		name    string
		inputs  []string
		in      Input
		ceiling float64
	}{
		{"equality3", []string{"From", "To", "Day"}, flightInput(), 1},
		{"range", []string{"Price"}, Input{{Path: "Price", Value: types.Float(390)}}, 2},
		{"equality+group", []string{"From", "Legs.Carrier"}, Input{
			{Path: "From", Value: types.String("city03")}, {Path: "Legs.Carrier", Value: types.String("c2")}}, 2},
		{"group", []string{"Legs.Via", "Legs.Carrier"}, Input{
			{Path: "Legs.Carrier", Value: types.String("c2")}, {Path: "Legs.Via", Value: types.String("city07")}}, 2},
	} {
		tab := flightTable(t, c.inputs...)
		ctx := context.Background()
		allocs := testing.AllocsPerRun(200, func() {
			inv, err := tab.Invoke(ctx, c.in)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inv.Fetch(ctx); err != nil && !errors.Is(err, ErrExhausted) {
				t.Fatal(err)
			}
		})
		if allocs > c.ceiling {
			t.Errorf("%s Invoke + Fetch allocates %.0f times, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}

// TestTableDistinctBindingsDoNotGrowHeap: an invocation keeps nothing of
// the value it was bound to. 50 000 invocations on Genres.Genre values the
// table never loaded must leave the heap where it was; a table that
// recorded each probe value would keep megabytes. Not parallel: it reads
// the process heap.
func TestTableDistinctBindingsDoNotGrowHeap(t *testing.T) {
	tab := newMovieTable(t, 2)
	in := movieBinding()
	ctx := context.Background()
	invoke := func(genre string) {
		in["Genres.Genre"] = types.String(genre)
		inv, err := tab.Invoke(ctx, NewInput(in))
		if err != nil {
			t.Fatal(err)
		}
		if c, err := inv.Fetch(ctx); len(c.Tuples) != 0 || (err != nil && !errors.Is(err, ErrExhausted)) {
			t.Fatalf("genre %s: fetch = %d tuples, %v; want none", genre, len(c.Tuples), err)
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	invoke("Western") // builds the index before the baseline
	before := heap()
	for i := 0; i < 50_000; i++ {
		invoke("Genre-" + strconv.Itoa(i))
	}
	if grown := int64(heap()) - int64(before); grown >= 1<<20 {
		t.Errorf("50 000 distinct bindings grew the heap by %d KB, want < 1024 KB", grown>>10)
	}
}

var keyLen int

// TestInvocationBindingAllocs guards the per-invocation binding walks:
// checking and binding a path-sorted Input against the interface's
// sorted input paths allocates nothing, and neither does building the
// Share key in a caller's buffer.
func TestInvocationBindingAllocs(t *testing.T) {
	tab := flightTable(t, "From", "To", "Day")
	in := flightInput()
	ix := tab.index()
	var buf [8]bound
	var key [128]byte
	for _, c := range []struct {
		name string
		want float64
		f    func()
	}{
		{"CheckInput", 0, func() {
			if err := CheckInput(tab.si, in); err != nil {
				t.Fatal(err)
			}
		}},
		{"tableIndex.bind", 0, func() {
			if bs, err := ix.bind(in, buf[:0]); err != nil || len(bs) != 3 {
				t.Fatalf("bind = %d columns, %v", len(bs), err)
			}
		}},
		{"appendInputKey", 0, func() { keyLen = len(appendInputKey(key[:0], in)) }},
	} {
		if got := testing.AllocsPerRun(200, c.f); got != c.want {
			t.Errorf("%s allocates %.0f objects, want %.0f", c.name, got, c.want)
		}
	}
}

var benchIndex *tableIndex

// BenchmarkTableFreeze is the cost the first Invoke after a load pays:
// ranking the 800 flight rows and building every input column's index.
func BenchmarkTableFreeze(b *testing.B) {
	for _, c := range []struct {
		name   string
		inputs []string
	}{
		{"equality3", []string{"From", "To", "Day"}},
		{"group", []string{"Legs.Via", "Legs.Carrier"}},
	} {
		b.Run(c.name, func(b *testing.B) {
			tab := flightTable(b, c.inputs...)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchIndex = tab.buildIndex()
			}
		})
	}
}
