package join

import (
	"testing"
	"testing/quick"
)

func TestStrategyValidate(t *testing.T) {
	good := []Strategy{
		{Invocation: NestedLoop, Completion: Rectangular, H: 2},
		{Invocation: MergeScan, Completion: Triangular},
		{Invocation: MergeScan, Completion: Rectangular, RatioX: 3, RatioY: 5},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("Validate(%v): %v", s, err)
		}
	}
	bad := []Strategy{
		{Invocation: NestedLoop, Completion: Rectangular, H: 0},
		{Invocation: MergeScan, Completion: Rectangular, RatioX: -1},
		{Invocation: InvocationKind(9), Completion: Rectangular},
		{Invocation: MergeScan, Completion: CompletionKind(9)},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) succeeded, want error", s)
		}
	}
}

func TestStrategyString(t *testing.T) {
	s := Strategy{Invocation: NestedLoop, Completion: Rectangular, H: 3}
	if got := s.String(); got != "nested-loop/rectangular(h=3)" {
		t.Errorf("String = %q", got)
	}
	s = Strategy{Invocation: MergeScan, Completion: Triangular}
	if got := s.String(); got != "merge-scan/triangular(1:1)" {
		t.Errorf("String = %q", got)
	}
}

func TestMethodsEnumeration(t *testing.T) {
	ms := Methods(2)
	if len(ms) != 4 {
		t.Fatalf("Methods = %d entries", len(ms))
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Errorf("method %v invalid: %v", m, err)
		}
	}
}

// mustTrace runs Trace and fails the test on error.
func mustTrace(t *testing.T, s Strategy, lx, ly int) []Event {
	t.Helper()
	evs, err := Trace(s, lx, ly)
	if err != nil {
		t.Fatal(err)
	}
	return evs
}

// Fig. 5a: nested loop fetches all h chunks of X first, then alternates a
// Y fetch with the processing of its whole column.
func TestNestedLoopFetchOrder(t *testing.T) {
	evs := mustTrace(t, Strategy{Invocation: NestedLoop, Completion: Rectangular, H: 3}, 3, 2)
	var fetches []Side
	for _, e := range evs {
		if e.Kind == EventFetch {
			fetches = append(fetches, e.Side)
		}
	}
	want := []Side{SideX, SideX, SideX, SideY, SideY}
	if len(fetches) != len(want) {
		t.Fatalf("fetches = %v", fetches)
	}
	for i := range want {
		if fetches[i] != want[i] {
			t.Fatalf("fetch[%d] = %v, want %v (full: %v)", i, fetches[i], want[i], fetches)
		}
	}
	tiles := CollectTiles(evs)
	if len(tiles) != 6 {
		t.Fatalf("tiles = %v", tiles)
	}
	// Each Y chunk joins the whole X column before the next Y fetch.
	wantTiles := []Tile{{0, 0}, {1, 0}, {2, 0}, {0, 1}, {1, 1}, {2, 1}}
	for i, w := range wantTiles {
		if tiles[i] != w {
			t.Errorf("tile[%d] = %v, want %v", i, tiles[i], w)
		}
	}
}

// Fig. 5b: merge-scan with ratio 1:1 alternates fetches and processes
// tiles along anti-diagonals.
func TestMergeScanAlternatesAndDiagonal(t *testing.T) {
	evs := mustTrace(t, Strategy{Invocation: MergeScan, Completion: Triangular}, 3, 3)
	var fetches []Side
	for _, e := range evs {
		if e.Kind == EventFetch {
			fetches = append(fetches, e.Side)
		}
	}
	want := []Side{SideX, SideY, SideX, SideY, SideX, SideY}
	for i := range want {
		if fetches[i] != want[i] {
			t.Fatalf("fetches = %v, want %v", fetches, want)
		}
	}
	tiles := CollectTiles(evs)
	wantTiles := []Tile{{0, 0}, {1, 0}, {0, 1}, {2, 0}, {1, 1}, {0, 2}}
	if len(tiles) != len(wantTiles) {
		t.Fatalf("tiles = %v, want %v", tiles, wantTiles)
	}
	for i, w := range wantTiles {
		if tiles[i] != w {
			t.Errorf("tile[%d] = %v, want %v", i, tiles[i], w)
		}
	}
	// Triangular keeps only the anti-diagonal half: tiles with x+y >= 3
	// are never processed.
	for _, ti := range tiles {
		if ti.IndexSum() >= 3 {
			t.Errorf("triangular processed %v beyond the diagonal", ti)
		}
	}
}

// Fig. 7: merge-scan with rectangular completion and ratio 1 explores
// squares of increasing size.
func TestMergeScanRectangularSquares(t *testing.T) {
	evs := mustTrace(t, Strategy{Invocation: MergeScan, Completion: Rectangular}, 3, 3)
	// After the 2f-th fetch the processed region must be the f×f square.
	nx, ny, processed := 0, 0, map[Tile]bool{}
	for _, e := range evs {
		switch e.Kind {
		case EventFetch:
			if e.Side == SideX {
				nx++
			} else {
				ny++
			}
		case EventTile:
			processed[e.Tile] = true
		}
	}
	if nx != 3 || ny != 3 {
		t.Fatalf("fetched %d/%d", nx, ny)
	}
	if len(processed) != 9 {
		t.Fatalf("processed %d tiles, want full 3×3 square", len(processed))
	}
	// Check the square-growth order: tile (2,2) must come after all
	// tiles of the 2×2 square.
	tiles := CollectTiles(evs)
	seen22 := false
	for _, ti := range tiles {
		if ti == (Tile{2, 2}) {
			seen22 = true
		}
		if !seen22 && (ti.X > 2 || ti.Y > 2) {
			t.Errorf("tile %v out of square order", ti)
		}
	}
	if tiles[len(tiles)-1] != (Tile{2, 2}) {
		t.Errorf("last tile = %v, want t(2,2)", tiles[len(tiles)-1])
	}
}

// Fig. 6 degenerate case: when one side is exhausted after a single chunk,
// the rectangular strategy keeps adding "long and thin" single-tile
// columns.
func TestRectangularDegenerateLongThin(t *testing.T) {
	ex, err := NewExplorer(Strategy{Invocation: MergeScan, Completion: Rectangular}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	var tiles []Tile
	for {
		ev, ok := ex.Next()
		if !ok {
			break
		}
		if ev.Kind == EventFetch && ev.Side == SideX {
			nx, _ := ex.Fetched()
			if nx > 1 {
				ex.ReportExhausted(SideX) // X has a single chunk
				continue
			}
		}
		if ev.Kind == EventTile {
			tiles = append(tiles, ev.Tile)
		}
	}
	if len(tiles) != 6 {
		t.Fatalf("tiles = %v", tiles)
	}
	for i, ti := range tiles {
		if ti.X != 0 || ti.Y != i {
			t.Errorf("tile[%d] = %v, want t(0,%d): each I/O adds one tile", i, ti, i)
		}
	}
}

func TestExplorerLimitsRespected(t *testing.T) {
	evs := mustTrace(t, Strategy{Invocation: MergeScan, Completion: Rectangular}, 2, 3)
	nx, ny := 0, 0
	for _, e := range evs {
		if e.Kind == EventFetch {
			if e.Side == SideX {
				nx++
			} else {
				ny++
			}
		}
	}
	if nx != 2 || ny != 3 {
		t.Errorf("fetches %d/%d, want 2/3", nx, ny)
	}
	if got := len(CollectTiles(evs)); got != 6 {
		t.Errorf("tiles = %d, want 6", got)
	}
}

func TestTriangularFlushOnExhaust(t *testing.T) {
	s := Strategy{Invocation: MergeScan, Completion: Triangular, FlushOnExhaust: true}
	evs := mustTrace(t, s, 3, 3)
	if got := len(CollectTiles(evs)); got != 9 {
		t.Errorf("flushed tiles = %d, want full 9", got)
	}
	// Without flushing only the strict triangle is processed.
	s.FlushOnExhaust = false
	evs = mustTrace(t, s, 3, 3)
	if got := len(CollectTiles(evs)); got != 6 {
		t.Errorf("strict tiles = %d, want 6", got)
	}
}

func TestMergeScanRatio(t *testing.T) {
	s := Strategy{Invocation: MergeScan, Completion: Rectangular, RatioX: 1, RatioY: 2}
	ex, err := NewExplorer(s, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	ex.RecordFetchOrder()
	for {
		if _, ok := ex.Next(); !ok {
			break
		}
	}
	var xs, ys int
	for _, s := range ex.FetchOrder() {
		if s == SideX {
			xs++
		} else {
			ys++
		}
	}
	if xs != 2 || ys != 4 {
		t.Errorf("fetch mix %d:%d, want 2:4 (order %v)", xs, ys, ex.FetchOrder())
	}
	// The interleave must keep the running ratio close to 1:2, never
	// fetching X twice in a row.
	order := ex.FetchOrder()
	for i := 1; i < len(order); i++ {
		if order[i] == SideX && order[i-1] == SideX {
			t.Errorf("X fetched twice in a row at %d: %v", i, order)
		}
	}
}

func TestExplorerNoDuplicateTilesProperty(t *testing.T) {
	f := func(inv, comp bool, h, lx, ly uint8) bool {
		s := Strategy{Completion: Rectangular, H: int(h%4) + 1}
		if inv {
			s.Invocation = NestedLoop
		} else {
			s.Invocation = MergeScan
		}
		if comp {
			s.Completion = Triangular
		}
		limX, limY := int(lx%6)+1, int(ly%6)+1
		evs, err := Trace(s, limX, limY)
		if err != nil {
			return false
		}
		seen := map[Tile]bool{}
		nx, ny := 0, 0
		for _, e := range evs {
			switch e.Kind {
			case EventFetch:
				if e.Side == SideX {
					nx++
				} else {
					ny++
				}
			case EventTile:
				if seen[e.Tile] {
					return false // duplicate
				}
				// A tile may only be processed when both chunks exist.
				if e.Tile.X >= nx || e.Tile.Y >= ny {
					return false
				}
				seen[e.Tile] = true
			}
		}
		// Rectangular completion must cover the full fetched rectangle.
		if s.Completion == Rectangular && len(seen) != nx*ny {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Consecutive tiles of the triangular strategy keep non-decreasing
// weighted diagonals, the tile-level version of "the sum of indexes of two
// consecutive tiles cannot increase by more than one cannot decrease".
func TestTriangularDiagonalMonotoneProperty(t *testing.T) {
	f := func(lx, ly uint8) bool {
		s := Strategy{Invocation: MergeScan, Completion: Triangular}
		evs, err := Trace(s, int(lx%8)+1, int(ly%8)+1)
		if err != nil {
			return false
		}
		tiles := CollectTiles(evs)
		for i := 1; i < len(tiles); i++ {
			if tiles[i].IndexSum() < tiles[i-1].IndexSum()-1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestNewExplorerRejectsBadInput(t *testing.T) {
	if _, err := NewExplorer(Strategy{Invocation: NestedLoop, H: 0}, 1, 1); err == nil {
		t.Error("invalid strategy accepted")
	}
	if _, err := NewExplorer(Strategy{Invocation: MergeScan}, -1, 1); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestReportExhaustedRollsBack(t *testing.T) {
	ex, err := NewExplorer(Strategy{Invocation: MergeScan, Completion: Rectangular}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev, ok := ex.Next()
	if !ok || ev.Kind != EventFetch || ev.Side != SideX {
		t.Fatalf("first event = %v, %v", ev, ok)
	}
	ex.ReportExhausted(SideX)
	if nx, _ := ex.Fetched(); nx != 0 {
		t.Errorf("nx = %d after rollback", nx)
	}
	ev, ok = ex.Next()
	if !ok || ev.Kind != EventFetch || ev.Side != SideY {
		t.Fatalf("second event = %v, %v", ev, ok)
	}
	ex.ReportExhausted(SideY)
	if _, ok := ex.Next(); ok {
		t.Error("explorer continued after both sides exhausted")
	}
}

// TestExplorerProcessedTracksEmittedTiles checks the processed-tile bitset
// against the set of tiles emitted so far, at every fetch, and that no
// tile is emitted twice (a lost bit gets its tile re-emitted before the
// next check). Y runs past one and two words per row: under nested loop
// every X row exists before the rows widen; under a 1:3 merge-scan rows
// keep being added after.
func TestExplorerProcessedTracksEmittedTiles(t *testing.T) {
	for _, c := range []struct {
		s          Strategy
		limX, limY int
	}{
		{Strategy{Invocation: NestedLoop, Completion: Rectangular, H: 3}, 0, 150},
		{Strategy{Invocation: MergeScan, Completion: Triangular, RatioX: 1, RatioY: 3}, 50, 150},
	} {
		ex, err := NewExplorer(c.s, c.limX, c.limY)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[Tile]bool{}
		check := func() {
			nx, ny := ex.Fetched()
			for x := -1; x <= nx+1; x++ {
				for y := -1; y <= ny+65; y++ {
					if tile := (Tile{X: x, Y: y}); ex.Processed(tile) != seen[tile] {
						t.Fatalf("%v: Processed(%v) = %v after %d tiles", c.s, tile, !seen[tile], len(seen))
					}
				}
			}
		}
		for {
			ev, ok := ex.Next()
			if !ok {
				break
			}
			if ev.Kind == EventTile {
				if seen[ev.Tile] {
					t.Fatalf("%v: tile %v emitted twice", c.s, ev.Tile)
				}
				seen[ev.Tile] = true
				continue
			}
			check()
		}
		check()
		if _, ny := ex.Fetched(); ny != c.limY {
			t.Errorf("%v: fetched %d Y chunks, want %d", c.s, ny, c.limY)
		}
	}
}
