package engine

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"seco/internal/obs"
)

// Operator is the pull-based face of one plan node in the compiled
// operator graph. Operators exchange compact combinations (combs, see
// compact.go); the map-backed public Combination exists only past the
// driver's result boundary. The lifecycle is Open → Next* → Close:
//
//   - Open prepares the operator (and its inputs) for pulling. It never
//     issues service calls — invocation stays lazy, so an operator whose
//     output is never demanded costs nothing.
//   - Next returns the next ranked combination, or (nil, nil) once the
//     operator is exhausted; calling Next after exhaustion keeps
//     returning (nil, nil). After Close, Next returns ErrClosed.
//   - Bound returns an upper bound on the score of any combination a
//     future Next can return (-Inf when none remain), derived from the
//     services' published Scoring curves and the scores already observed.
//     The pull driver uses the root bound as its top-k stopping rule.
//   - Close releases the operator's resources — including its comb arena
//     and pooled buffers, which is why teardown must run only after the
//     driver has materialized its results. Close is idempotent and must
//     leave any goroutines the operator spawned quiescent.
//
// Operators are not safe for concurrent use; the join-branch prefetcher
// owns its input exclusively, a pipe's look-ahead goroutines touch only
// the service, never the input, and fan-out nodes are compiled to a
// mutex-guarded sharedOp with per-consumer tee cursors.
type Operator interface {
	Open(ctx context.Context) error
	Next(ctx context.Context) (*comb, error)
	Bound() float64
	Close()
}

// ErrClosed is returned by Next on an operator that has been closed
// before exhaustion.
var ErrClosed = errors.New("engine: operator closed")

// countedOp decorates every compiled operator: it enforces the lifecycle
// state machine (idempotent Open/Close, ErrClosed after Close), counts
// distinct emissions for Run.Produced, and — when the run is traced —
// records the operator's Open→Close span with aggregate pull statistics
// into the operator's trace lane. Bound probes are deliberately not
// counted: how often a consumer asks depends on which sibling consumer of
// a shared node marked it done first, so the count is schedule-dependent
// even under the drain policy.
type countedOp struct {
	inner  runOp
	n      *atomic.Int64
	sc     *obs.Scope // nil when the run is untraced
	endSp  func(...obs.Attr)
	nexts  atomic.Int64
	opened bool
	closed bool
}

func (c *countedOp) Open(ctx context.Context) error {
	if c.closed {
		return ErrClosed
	}
	if c.opened {
		return nil
	}
	if c.sc != nil {
		c.endSp = c.sc.StartSpan("operator", obs.KindOperator)
	}
	if err := c.inner.Open(ctx); err != nil {
		return err
	}
	c.opened = true
	return nil
}

func (c *countedOp) Next(ctx context.Context) (*comb, error) {
	if c.closed {
		return nil, ErrClosed
	}
	if c.sc != nil {
		c.nexts.Add(1)
	}
	combo, err := c.inner.Next(ctx)
	if combo != nil {
		c.n.Add(1)
	}
	return combo, err
}

func (c *countedOp) Bound() float64 {
	if c.closed {
		return math.Inf(-1)
	}
	return c.inner.Bound()
}

func (c *countedOp) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.endSp != nil {
		c.endSp(
			obs.KI("nexts", c.nexts.Load()),
			obs.KI("emitted", c.n.Load()),
		)
		c.endSp = nil
	}
	c.inner.Close()
}

func (c *countedOp) reset() {
	c.sc, c.endSp, c.opened, c.closed = nil, nil, false, false
	c.nexts.Store(0)
	c.inner.reset()
}

// inputOp emits the single empty combination every plan starts from.
// Nothing writes a comb it did not allocate, so one seed serves every run.
type inputOp struct {
	seed comb
	done bool
}

func (s *inputOp) Open(context.Context) error { return nil }

func (s *inputOp) Next(context.Context) (*comb, error) {
	if s.done {
		return nil, nil
	}
	s.done = true
	return &s.seed, nil
}

func (s *inputOp) Bound() float64 {
	if s.done {
		return math.Inf(-1)
	}
	return 0
}

func (s *inputOp) Close() { s.done = true }

func (s *inputOp) reset() { s.done = false }

// selectionOp filters its input; selections never change scores, so the
// input bound carries over.
type selectionOp struct {
	ex   *executor
	sels []compiledSel
	up   Operator
}

func (s *selectionOp) Open(ctx context.Context) error { return s.up.Open(ctx) }

func (s *selectionOp) Next(ctx context.Context) (*comb, error) {
	for {
		c, err := s.up.Next(ctx)
		if err != nil || c == nil {
			return nil, err
		}
		keep := true
		for i := range s.sels {
			ok, err := s.sels[i].eval(s.ex, c)
			if err != nil {
				return nil, err
			}
			if !ok {
				keep = false
				break
			}
		}
		if keep {
			return c, nil
		}
	}
}

func (s *selectionOp) Bound() float64 { return s.up.Bound() }

func (s *selectionOp) Close() {}

func (s *selectionOp) reset() {}

// sharedOp buffers a fan-out node's output so several consumers can
// replay it independently; comb (and component tuple) identity is
// preserved, which the join's shared-ancestor glue relies on.
type sharedOp struct {
	mu     sync.Mutex
	src    Operator
	opened bool
	buf    []*comb
	done   bool
	err    error
}

func (s *sharedOp) open(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opened {
		return nil
	}
	if err := s.src.Open(ctx); err != nil {
		return err
	}
	s.opened = true
	return nil
}

// reset empties the buffer for the next run, keeping its capacity.
func (s *sharedOp) reset() {
	clear(s.buf)
	s.buf, s.opened, s.done, s.err = s.buf[:0], false, false, nil
}

// teeOp is one consumer's cursor over a sharedOp.
type teeOp struct {
	sh  *sharedOp
	pos int
}

func (t *teeOp) Open(ctx context.Context) error { return t.sh.open(ctx) }

func (t *teeOp) Next(ctx context.Context) (*comb, error) {
	s := t.sh
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.pos < len(s.buf) {
		c := s.buf[t.pos]
		t.pos++
		return c, nil
	}
	if s.err != nil {
		return nil, s.err
	}
	if s.done {
		return nil, nil
	}
	c, err := s.src.Next(ctx)
	if err != nil {
		s.err = err
		return nil, err
	}
	if c == nil {
		s.done = true
		return nil, nil
	}
	s.buf = append(s.buf, c)
	t.pos++
	return c, nil
}

func (t *teeOp) Bound() float64 {
	s := t.sh
	s.mu.Lock()
	defer s.mu.Unlock()
	b := math.Inf(-1)
	for i := t.pos; i < len(s.buf); i++ {
		if sc := s.buf[i].score; sc > b {
			b = sc
		}
	}
	if !s.done && s.err == nil {
		if v := s.src.Bound(); v > b {
			b = v
		}
	}
	return b
}

// Close detaches this consumer only; the backing operator is owned by the
// graph and closed during graph teardown.
func (t *teeOp) Close() {}
