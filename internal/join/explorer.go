package join

import "fmt"

// Explorer turns a join Strategy into a deterministic stream of events: it
// decides, step by step, whether to fetch the next chunk from X or Y and
// which available tile to process next. The caller drives it:
//
//	ex, _ := NewExplorer(strat, limitX, limitY)
//	for {
//		ev, ok := ex.Next()
//		if !ok { break }
//		switch ev.Kind {
//		case EventFetch:
//			// issue the request-response; on ErrExhausted call
//			// ex.ReportExhausted(ev.Side)
//		case EventTile:
//			// join the chunk pair ev.Tile
//		}
//	}
//
// The explorer never emits the same tile twice, prefers processing
// admitted tiles over fetching, and orders tiles by their weighted
// diagonal index so that consecutive extractions keep the index sum
// non-decreasing (extraction-optimality at the tile level, Section 4.1).
type Explorer struct {
	strat          Strategy
	limitX, limitY int // 0 = unbounded
	nx, ny         int // successful fetches per side
	exhausted      [2]bool
	// processed is a bitset over the tiles emitted, one row of stride
	// words per X chunk: tile (x, y) is bit y%64 of word x·stride + y/64.
	processed        []uint64
	stride           int
	flushing         bool
	lastFetch        Side
	fetchesOutstand  bool // a fetch event was emitted but not yet confirmed
	outstandingSide  Side
	totalTiles       int
	totalFetches     int
	fetchSequence    []Side
	recordFetchOrder bool
	ranker           func(Tile) float64
}

// NewExplorer builds an explorer for the strategy with optional per-side
// fetch limits (the plan's fetching factors; 0 means unbounded).
func NewExplorer(s Strategy, limitX, limitY int) (*Explorer, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if limitX < 0 || limitY < 0 {
		return nil, fmt.Errorf("join: negative fetch limit %d/%d", limitX, limitY)
	}
	return &Explorer{
		strat:     s.withDefaults(),
		limitX:    limitX,
		limitY:    limitY,
		processed: make([]uint64, 0, 8),
		stride:    1,
	}, nil
}

// Reset returns the explorer to the state NewExplorer left it in, keeping
// its strategy, limits, ranker and buffers, so one explorer can schedule
// join after join.
func (e *Explorer) Reset() {
	*e = Explorer{
		strat: e.strat, limitX: e.limitX, limitY: e.limitY,
		processed: e.processed[:0], stride: 1,
		fetchSequence: e.fetchSequence[:0], recordFetchOrder: e.recordFetchOrder,
		ranker: e.ranker,
	}
}

// RecordFetchOrder makes the explorer keep the sequence of fetch sides for
// inspection (used by strategy-trace tests).
func (e *Explorer) RecordFetchOrder() { e.recordFetchOrder = true }

// SetRanker supplies the representative rank of each tile (the product of
// the first-tuple scores of its chunks, Section 4.1). When set, the
// explorer processes admitted tiles in decreasing rank instead of pure
// diagonal order, which realizes local extraction-optimality with respect
// to the observed rankings. Without a ranker the order is geometric:
// increasing weighted diagonal.
func (e *Explorer) SetRanker(rank func(Tile) float64) { e.ranker = rank }

// FetchOrder returns the recorded fetch sequence.
func (e *Explorer) FetchOrder() []Side { return e.fetchSequence }

// Fetched returns the number of successful fetches per side.
func (e *Explorer) Fetched() (nx, ny int) { return e.nx, e.ny }

// Processed reports whether the tile has been emitted as a tile event.
func (e *Explorer) Processed(t Tile) bool {
	if t.X < 0 || t.Y < 0 || t.Y >= 64*e.stride {
		return false
	}
	i := t.X*e.stride + t.Y/64
	return i < len(e.processed) && e.processed[i]&(1<<(t.Y%64)) != 0
}

// markProcessed records the tile as emitted, widening the rows when Y
// passes their last word and adding rows up to X.
func (e *Explorer) markProcessed(t Tile) {
	if w := t.Y/64 + 1; w > e.stride {
		rows := len(e.processed) / e.stride
		wide := make([]uint64, rows*w, max(rows, t.X+1)*w)
		for x := 0; x < rows; x++ {
			copy(wide[x*w:], e.processed[x*e.stride:(x+1)*e.stride])
		}
		e.processed, e.stride = wide, w
	}
	if n := (t.X + 1) * e.stride; n > len(e.processed) {
		e.processed = append(e.processed, make([]uint64, n-len(e.processed))...)
	}
	e.processed[t.X*e.stride+t.Y/64] |= 1 << (t.Y % 64)
}

// Tiles returns the number of tile events emitted.
func (e *Explorer) Tiles() int { return e.totalTiles }

// ReportExhausted informs the explorer that the last fetch on the given
// side found the service exhausted: the optimistically counted chunk is
// rolled back and the side stops being fetched.
func (e *Explorer) ReportExhausted(side Side) {
	if e.fetchesOutstand && e.outstandingSide == side {
		if side == SideX {
			e.nx--
		} else {
			e.ny--
		}
		e.totalFetches--
		if e.recordFetchOrder && len(e.fetchSequence) > 0 {
			e.fetchSequence = e.fetchSequence[:len(e.fetchSequence)-1]
		}
		e.fetchesOutstand = false
	}
	e.exhausted[side] = true
}

// Next returns the next event, or ok=false when the exploration is
// complete.
func (e *Explorer) Next() (Event, bool) {
	e.fetchesOutstand = false
	for {
		if t, ok := e.bestTile(); ok {
			e.markProcessed(t)
			e.totalTiles++
			return Event{Kind: EventTile, Tile: t}, true
		}
		side, ok := e.nextFetchSide()
		if !ok {
			if e.strat.Completion == Triangular && e.strat.FlushOnExhaust && !e.flushing && e.hasUnprocessed() {
				e.flushing = true
				continue
			}
			return Event{}, false
		}
		if side == SideX {
			e.nx++
		} else {
			e.ny++
		}
		e.totalFetches++
		e.lastFetch = side
		e.fetchesOutstand = true
		e.outstandingSide = side
		if e.recordFetchOrder {
			e.fetchSequence = append(e.fetchSequence, side)
		}
		return Event{Kind: EventFetch, Side: side}, true
	}
}

// bestTile returns the unprocessed, available, admitted tile with the
// highest representative rank (when a ranker is set), breaking ties — or
// ordering entirely, without a ranker — by the smallest (diagonal, y) key.
func (e *Explorer) bestTile() (Tile, bool) {
	rx, ry := e.strat.RatioX, e.strat.RatioY
	best := Tile{}
	bestKey := [2]int{1 << 30, 1 << 30}
	bestRank := -1.0
	found := false
	for x := 0; x < e.nx; x++ {
		for y := 0; y < e.ny; y++ {
			t := Tile{X: x, Y: y}
			if e.Processed(t) || !e.admitted(t) {
				continue
			}
			rank := 0.0
			if e.ranker != nil {
				rank = e.ranker(t)
			}
			key := [2]int{t.Diagonal(rx, ry), y}
			better := !found ||
				rank > bestRank+1e-12 ||
				(rank > bestRank-1e-12 &&
					(key[0] < bestKey[0] || (key[0] == bestKey[0] && key[1] < bestKey[1])))
			if better {
				best, bestKey, bestRank, found = t, key, rank, true
			}
		}
	}
	return best, found
}

// admitted applies the completion strategy: rectangular admits every
// available tile; triangular admits tiles strictly under the current
// weighted anti-diagonal max(nx·ry, ny·rx), which keeps roughly the most
// promising half of the explored rectangle.
func (e *Explorer) admitted(t Tile) bool {
	if e.strat.Completion == Rectangular || e.flushing {
		return true
	}
	thr := e.nx * e.strat.RatioY
	if v := e.ny * e.strat.RatioX; v > thr {
		thr = v
	}
	return t.Diagonal(e.strat.RatioX, e.strat.RatioY) < thr
}

func (e *Explorer) hasUnprocessed() bool {
	return e.totalTiles < e.nx*e.ny
}

// canFetch reports whether the side may still be fetched.
func (e *Explorer) canFetch(side Side) bool {
	if e.exhausted[side] {
		return false
	}
	n, limit := e.nx, e.limitX
	if side == SideY {
		n, limit = e.ny, e.limitY
	}
	if limit > 0 && n >= limit {
		return false
	}
	if e.strat.Invocation == NestedLoop && side == SideX && e.nx >= e.strat.H {
		// Nested loop takes exactly the h "step" chunks from X.
		return false
	}
	return true
}

// nextFetchSide applies the invocation strategy.
func (e *Explorer) nextFetchSide() (Side, bool) {
	cx, cy := e.canFetch(SideX), e.canFetch(SideY)
	if !cx && !cy {
		return 0, false
	}
	switch e.strat.Invocation {
	case NestedLoop:
		// All h chunks of X first, then Y chunk by chunk.
		if cx {
			return SideX, true
		}
		return SideY, true
	default: // MergeScan
		if !cx {
			return SideY, true
		}
		if !cy {
			return SideX, true
		}
		// The clock regulates the interleave per RatioX:RatioY, starting
		// with X so the first two calls alternate (Section 4.4.1).
		clock := Clock{rx: e.strat.RatioX, ry: e.strat.RatioY, nx: e.nx, ny: e.ny}
		return clock.Propose(), true
	}
}
