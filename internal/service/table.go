package service

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"seco/internal/mart"
	"seco/internal/types"
)

// Table is an in-memory Service backed by a slice of tuples. It is the
// substrate standing in for remote web services: the synthetic scenario
// generators load it with deterministic data, and it then behaves exactly
// like the chapter's services — it honours access limitations (all input
// paths must be bound), filters rows by the input binding with the
// single-sub-tuple repeating-group semantics of Section 3.1, and serves the
// matching rows in decreasing score order, chunk by chunk.
//
// Loading (Add, SetMatchOp) must finish before invocations start; from then
// on Invoke is safe for concurrent use. The first Invoke after the last
// load freezes the rows into a tableIndex, and every invocation is answered
// from it.
type Table struct {
	si    *mart.Interface
	stats Stats
	rows  []*types.Tuple
	// matchOps optionally overrides the comparison used for an input
	// path; the default is equality. The running example uses OpGe for
	// Movie1's Openings.Date input ("opening after the given date").
	matchOps map[string]types.Op

	// idx is the frozen index, nil until the first Invoke after a load;
	// mu serializes its construction.
	mu  sync.Mutex
	idx atomic.Pointer[tableIndex]
}

// NewTable builds a table service over si with the given statistics.
func NewTable(si *mart.Interface, stats Stats) (*Table, error) {
	if err := stats.Validate(); err != nil {
		return nil, err
	}
	return &Table{si: si, stats: stats, matchOps: make(map[string]types.Op)}, nil
}

// SetMatchOp overrides the comparison operator used when matching the
// given input path against its bound value. The operator is evaluated as
// "row value op bound value".
func (t *Table) SetMatchOp(path string, op types.Op) {
	t.matchOps[path] = op
	t.idx.Store(nil)
}

// Add appends rows to the table. The table keeps the tuples as given and
// serves them without copying.
func (t *Table) Add(rows ...*types.Tuple) {
	t.rows = append(t.rows, rows...)
	t.idx.Store(nil)
}

// Len returns the number of rows loaded.
func (t *Table) Len() int { return len(t.rows) }

// Interface implements Service.
func (t *Table) Interface() *mart.Interface { return t.si }

// Stats implements Service.
func (t *Table) Stats() Stats { return t.stats }

// tableIndex is a table frozen for serving: the rows ranked once, and one
// compiled column per input path of the interface.
type tableIndex struct {
	t *Table
	// order holds the rows by decreasing score, load order breaking ties;
	// a row's position in it is its rank, and every posting list is
	// ascending in it — candidates arrive ranked and nothing is sorted per
	// invocation.
	order []*types.Tuple
	// cols are the interface's input paths in InputPaths order (sorted,
	// which keeps the paths of one repeating group adjacent).
	cols []*column
}

// column is one matched path, pre-cut and with its operator resolved.
type column struct {
	path       string
	group, sub string // group is "" for an atomic path, else path is group.sub
	op         types.Op
	// kinds holds, for an atomic path, the first value of each non-null
	// kind in load order. Whether the operator can compare two values
	// depends on their kinds alone, so these witnesses decide — before any
	// row is looked at, and with the error the first offending row would
	// raise — whether a bound value is comparable with the whole column.
	kinds []types.Value
	// span delimits, for a group path, the sub-tuples of each row in the
	// group's flat numbering: row i owns span[i] ≤ s < span[i+1]. The
	// columns of one group share it.
	span []int32
	// post, on an equality column whose every non-null value has an
	// equality key, lists per key the rows carrying it (for a group path:
	// in some sub-tuple). keys holds the same keys positionally — per row
	// for an atomic path, per sub-tuple for a group path, the zero key for
	// null — so that a candidate from one column's list is checked against
	// another column without touching the row's maps.
	post map[types.EqKey][]int32
	keys []types.EqKey
}

// index returns the frozen index, building it on first use.
func (t *Table) index() *tableIndex {
	if ix := t.idx.Load(); ix != nil {
		return ix
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ix := t.idx.Load(); ix != nil {
		return ix
	}
	ix := t.buildIndex()
	t.idx.Store(ix)
	return ix
}

func (t *Table) buildIndex() *tableIndex {
	ix := &tableIndex{t: t, order: append([]*types.Tuple(nil), t.rows...)}
	sort.SliceStable(ix.order, func(i, j int) bool { return ix.order[i].Score > ix.order[j].Score })
	for _, p := range t.si.InputPaths() {
		c := t.newColumn(p)
		if n := len(ix.cols); c.group != "" && n > 0 && ix.cols[n-1].group == c.group {
			c.span = ix.cols[n-1].span
		} else if c.group != "" {
			c.span = groupSpan(ix.order, c.group)
		}
		if c.op == types.OpEq {
			c.fill(ix.order)
		}
		ix.cols = append(ix.cols, c)
	}
	return ix
}

// groupSpan numbers the sub-tuples of a repeating group across the rows.
func groupSpan(order []*types.Tuple, group string) []int32 {
	span := make([]int32, 1, len(order)+1)
	for _, row := range order {
		span = append(span, span[len(span)-1]+int32(len(row.Groups[group])))
	}
	return span
}

// newColumn cuts a path, resolves its operator and, for an atomic path,
// collects the kind witnesses.
func (t *Table) newColumn(path string) *column {
	c := &column{path: path, op: types.OpEq}
	if op, ok := t.matchOps[path]; ok {
		c.op = op
	}
	if g, sub, dotted := strings.Cut(path, "."); dotted {
		c.group, c.sub = g, sub
		return c
	}
	// Load order, so the witness is the row a scan would trip on first.
next:
	for _, row := range t.rows {
		v := row.Atomic(path)
		if v.IsNull() {
			continue
		}
		for _, w := range c.kinds {
			if w.Kind() == v.Kind() {
				continue next
			}
		}
		c.kinds = append(c.kinds, v)
	}
	return c
}

// fill builds the posting lists and positional keys of an equality column.
// A value without an equality key (a NaN equals every number) leaves the
// column unkeyed: it is then matched by comparison like a range column.
func (c *column) fill(order []*types.Tuple) {
	post := make(map[types.EqKey][]int32)
	var keys []types.EqKey
	add := func(pos int, v types.Value) bool {
		k, ok := v.EqKey()
		if !ok {
			keys = append(keys, types.EqKey{})
			return v.IsNull()
		}
		keys = append(keys, k)
		if l := post[k]; len(l) == 0 || l[len(l)-1] != int32(pos) {
			post[k] = append(l, int32(pos))
		}
		return true
	}
	for pos, row := range order {
		if c.group == "" {
			if !add(pos, row.Atomic(c.path)) {
				return
			}
			continue
		}
		for _, st := range row.Groups[c.group] {
			if !add(pos, st[c.sub]) {
				return
			}
		}
	}
	c.post, c.keys = post, keys
}

// bound is one column with the value an invocation binds it to.
type bound struct {
	*column
	v types.Value
	// keyed selects the key comparison (the column is keyed and so is v);
	// otherwise the operator is evaluated on the values.
	keyed bool
	key   types.EqKey
	// run is, on the first column of a repeating group, the number of
	// adjacent bound columns on that group; 1 on an atomic column.
	run int
}

// bind pairs every compiled column with its bound value, rejecting
// missing bindings (access limitations are mandatory) and bindings an
// atomic column's values cannot be compared with. Columns and bindings
// are both sorted by path, so one merge walk pairs them.
func (ix *tableIndex) bind(in Input, bs []bound) ([]bound, error) {
	j := 0
	for _, c := range ix.cols {
		for j < len(in) && in[j].Path < c.path {
			j++
		}
		if j == len(in) || in[j].Path != c.path || in[j].Value.IsNull() {
			return nil, unboundError(ix.t.si, c.path)
		}
		b := bound{column: c, v: in[j].Value}
		j++
		if c.post != nil {
			b.key, b.keyed = b.v.EqKey()
		}
		bs = append(bs, b)
	}
	if len(in) > len(ix.cols) {
		bs = ix.bindExtras(in, bs)
	}
	for i := 0; i < len(bs); i += bs[i].run {
		b := &bs[i]
		for _, w := range b.kinds {
			if _, err := b.op.Eval(w, b.v); err != nil {
				return nil, fmt.Errorf("service %s: matching %q: %w", ix.t.si.Name, b.path, err)
			}
		}
		b.run = 1
		for b.group != "" && i+b.run < len(bs) && bs[i+b.run].group == b.group {
			b.run++
		}
	}
	return bs, nil
}

// bindExtras adds the bindings of in beyond the interface's inputs: they
// filter too, by comparison, on columns made up for the invocation. One on
// an input path's repeating group joins that group's single-sub-tuple
// test. The result is a fresh slice in path order, merged from the bound
// columns and the extra bindings, both sorted by path.
func (ix *tableIndex) bindExtras(in Input, bs []bound) []bound {
	out := make([]bound, 0, len(in))
	i := 0
	for _, e := range in {
		for i < len(bs) && bs[i].path < e.Path {
			out = append(out, bs[i])
			i++
		}
		if i < len(bs) && bs[i].path == e.Path {
			continue // an input path, bound already
		}
		c := ix.t.newColumn(e.Path)
		for _, ic := range ix.cols {
			if ic.group == c.group {
				c.span = ic.span // nil between atomic paths
			}
		}
		out = append(out, bound{column: c, v: e.Value})
	}
	return append(out, bs[i:]...)
}

// Invoke implements Service: the candidates are the shortest posting list
// an equality binding selects (every row when none does), in rank order;
// the remaining bindings filter them. The invocation serves the matches in
// chunks of Stats().ChunkSize.
func (t *Table) Invoke(ctx context.Context, in Input) (Invocation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ix := t.index()
	var buf [8]bound
	bs, err := ix.bind(in, buf[:0])
	if err != nil {
		return nil, err
	}
	drive, n := -1, len(ix.order)
	var cand []int32
	for i := range bs {
		if b := &bs[i]; b.keyed {
			if l := b.post[b.key]; len(l) < n || drive < 0 {
				drive, cand, n = i, l, len(l)
			}
		}
	}
	var matches []*types.Tuple
	if drive >= 0 {
		matches = make([]*types.Tuple, 0, n)
	}
	for i := 0; i < n; i++ {
		pos := i
		if drive >= 0 {
			pos = int(cand[i])
		}
		if ix.matches(pos, bs, drive) {
			matches = append(matches, ix.order[pos])
		}
	}
	return &tableInvocation{table: t, matches: matches}, nil
}

// matches evaluates the bound columns against the row at pos. Atomic
// paths must satisfy their operator directly. Input paths on the same
// repeating group must be satisfied together by a single sub-tuple,
// realizing the existential single-mapping semantics of Section 3.1. The
// column whose posting list produced pos is settled already, unless it is
// one of several on its group.
func (ix *tableIndex) matches(pos int, bs []bound, drive int) bool {
	row := ix.order[pos]
	for i := 0; i < len(bs); i += bs[i].run {
		b := &bs[i]
		switch {
		case i == drive && b.run == 1:
		case b.group != "":
			if !groupMatches(row, pos, bs[i:i+b.run]) {
				return false
			}
		case b.keyed:
			if b.keys[pos] != b.key {
				return false
			}
		default:
			// bind has established that the operator applies to every
			// value of the column, so err is nil.
			if ok, _ := b.op.Eval(row.Atomic(b.path), b.v); !ok {
				return false
			}
		}
	}
	return true
}

// groupMatches reports whether one sub-tuple of the row at pos satisfies
// every bound column of the group; a sub-value that cannot be compared
// with its binding does not satisfy it.
func groupMatches(row *types.Tuple, pos int, run []bound) bool {
	var subs []types.SubTuple // the row's map-backed sub-tuples, if an unkeyed column needs them
	lo, n := 0, 0
	if span := run[0].span; span != nil {
		lo, n = int(span[pos]), int(span[pos+1]-span[pos])
	} else {
		subs = row.Groups[run[0].group]
		n = len(subs)
	}
next:
	for s := 0; s < n; s++ {
		for i := range run {
			b := &run[i]
			if b.keyed {
				if b.keys[lo+s] != b.key {
					continue next
				}
				continue
			}
			if subs == nil {
				subs = row.Groups[b.group]
			}
			if ok, err := b.op.Eval(subs[s][b.sub], b.v); err != nil || !ok {
				continue next
			}
		}
		return true
	}
	return false
}

type tableInvocation struct {
	table   *Table
	matches []*types.Tuple
	next    int // index of the next chunk
}

// Fetch implements Invocation.
func (inv *tableInvocation) Fetch(ctx context.Context) (Chunk, error) {
	if err := ctx.Err(); err != nil {
		return Chunk{}, err
	}
	size := inv.table.stats.ChunkSize
	if size <= 0 {
		size = len(inv.matches)
		if size == 0 && inv.next == 0 {
			inv.next = 1
			return Chunk{Index: 0}, nil
		}
	}
	lo := inv.next * size
	if lo >= len(inv.matches) && !(inv.next == 0 && inv.table.stats.ChunkSize <= 0) {
		return Chunk{}, ErrExhausted
	}
	hi := lo + size
	if hi > len(inv.matches) {
		hi = len(inv.matches)
	}
	c := Chunk{Index: inv.next, Tuples: inv.matches[lo:hi]}
	inv.next++
	return c, nil
}
