package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"seco/internal/mart"
)

// oddInvokeFails fails every odd-numbered Invoke transiently: each
// primary attempt fails and its hedge succeeds.
type oddInvokeFails struct {
	inner Service
	calls int
	mu    sync.Mutex
}

func (s *oddInvokeFails) Interface() *mart.Interface { return s.inner.Interface() }
func (s *oddInvokeFails) Stats() Stats               { return s.inner.Stats() }
func (s *oddInvokeFails) Unwrap() Service            { return s.inner }

func (s *oddInvokeFails) Invoke(ctx context.Context, in Input) (Invocation, error) {
	s.mu.Lock()
	s.calls++
	fail := s.calls%2 == 1
	s.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("primary outage: %w", ErrTransient)
	}
	return s.inner.Invoke(ctx, in)
}

func TestHedgeRecoversTransientInvoke(t *testing.T) {
	h := NewHedge(&oddInvokeFails{inner: newMovieTable(t, 0)})
	if _, err := h.Invoke(context.Background(), movieInput()); err != nil {
		t.Fatalf("hedged invoke failed: %v", err)
	}
	if rs := h.Resilience(); rs.Hedges != 1 || rs.HedgeWins != 1 {
		t.Fatalf("attempts %d wins %d, want 1/1", rs.Hedges, rs.HedgeWins)
	}
}

func TestHedgeSkipsUnhedgeableErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
	}{
		{"permanent", ErrPermanent},
		{"open circuit", ErrOpen},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHedge(&errService{inner: newMovieTable(t, 0), err: tc.err})
			if _, err := h.Invoke(context.Background(), movieInput()); !errors.Is(err, tc.err) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if n := h.Resilience().Hedges; n != 0 {
				t.Fatalf("unhedgeable error was hedged %d times", n)
			}
		})
	}
}

// errService fails every Invoke with a fixed error.
type errService struct {
	inner Service
	err   error
}

func (s *errService) Interface() *mart.Interface { return s.inner.Interface() }
func (s *errService) Stats() Stats               { return s.inner.Stats() }

func (s *errService) Invoke(context.Context, Input) (Invocation, error) {
	return nil, fmt.Errorf("down: %w", s.err)
}

// failFirstPerChunk fails the first fetch attempt of each of the first n
// chunks transiently, honoring the layer convention that a failed fetch
// does not advance the stream cursor.
type failFirstPerChunk struct {
	inner Service
	n     int
}

func (s *failFirstPerChunk) Interface() *mart.Interface { return s.inner.Interface() }
func (s *failFirstPerChunk) Stats() Stats               { return s.inner.Stats() }
func (s *failFirstPerChunk) Unwrap() Service            { return s.inner }

func (s *failFirstPerChunk) Invoke(ctx context.Context, in Input) (Invocation, error) {
	inv, err := s.inner.Invoke(ctx, in)
	if err != nil {
		return nil, err
	}
	return &failFirstInvocation{inner: inv, remaining: s.n}, nil
}

type failFirstInvocation struct {
	inner     Invocation
	mu        sync.Mutex
	remaining int  // chunks still owed a failure
	failed    bool // current chunk's failure already injected
}

func (fi *failFirstInvocation) Fetch(ctx context.Context) (Chunk, error) {
	fi.mu.Lock()
	inject := fi.remaining > 0 && !fi.failed
	if inject {
		fi.failed = true
	}
	fi.mu.Unlock()
	if inject {
		return Chunk{}, fmt.Errorf("first attempt drop: %w", ErrTransient)
	}
	c, err := fi.inner.Fetch(ctx)
	if err == nil {
		fi.mu.Lock()
		if fi.failed {
			fi.remaining--
			fi.failed = false
		}
		fi.mu.Unlock()
	}
	return c, err
}

// TestHedgeShareOneUpstreamFetchPerChunk is the sharing-exemption
// guarantee: a hedged pair mounted above Share performs at most one
// successful upstream fetch per chunk — the hedge rides the dedup/memo
// layer instead of duplicating wire traffic.
func TestHedgeShareOneUpstreamFetchPerChunk(t *testing.T) {
	// Count the fault-free chunks first, so the fault schedule and the
	// assertions don't hard-code the fixture's shape.
	chunks, _ := drainShared(t, newMovieTable(t, 1), movieInput())
	if chunks < 2 {
		t.Fatalf("fixture has %d chunks; need at least 2", chunks)
	}

	wire := NewCounter(&failFirstPerChunk{inner: newMovieTable(t, 1), n: chunks}, nil)
	sh := NewShare(wire)
	h := NewHedge(sh)

	got, tuples := drainShared(t, h, movieInput())
	if got != chunks || tuples == 0 {
		t.Fatalf("hedged drain returned %d chunks (%d tuples), want %d", got, tuples, chunks)
	}
	if rs := h.Resilience(); rs.Hedges != int64(chunks) || rs.HedgeWins != int64(chunks) {
		t.Fatalf("hedge attempts %d wins %d, want %d each (one per chunk)",
			rs.Hedges, rs.HedgeWins, chunks)
	}
	if st := sh.Counters(); st.WireFetches != int64(chunks) {
		t.Fatalf("share saw %d wire fetches for %d chunks — hedging duplicated upstream traffic: %+v",
			st.WireFetches, chunks, st)
	}
	if wire.Fetches() != int64(chunks) {
		t.Fatalf("wire counted %d successful fetches, want %d", wire.Fetches(), chunks)
	}

	// Replays ride the memo: no new upstream traffic, no new hedges.
	drainShared(t, h, movieInput())
	if st := sh.Counters(); st.WireFetches != int64(chunks) || st.MemoHits != int64(chunks) {
		t.Fatalf("replay hit the wire: %+v", st)
	}
	if n := h.Resilience().Hedges; n != int64(chunks) {
		t.Fatalf("replay issued new hedges: %d", n)
	}
}

// TestBreakerHalfOpenHammerRace drives one Policy from many goroutines
// across a trip/cooldown/recovery cycle. Under -race this exercises the
// half-open single-probe gate (the probing flag) against concurrent
// Invokes — the exact contention pattern of concurrent runs sharing one
// engine, whose lanes funnel into a single policy instance.
func TestBreakerHalfOpenHammerRace(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewPolicy(sw, clk, 1)
	ctx := context.Background()

	hammer := func(workers, calls int) {
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					if inv, err := b.Invoke(ctx, movieInput()); err == nil {
						inv.Fetch(ctx)
					}
				}
			}()
		}
		wg.Wait()
	}

	// Phase 1: a failing backend under concurrent load must trip the
	// circuit and keep rejecting without touching the service.
	sw.failing.Store(true)
	hammer(8, 25)
	if st := circuitState(b); st != "open" {
		t.Fatalf("after failing hammer: state %s, want open", st)
	}
	if rs := b.Resilience(); rs.Tripped == 0 || rs.Rejected == 0 {
		t.Fatalf("hammer tripped %d, rejected %d — vacuous", rs.Tripped, rs.Rejected)
	}

	// Phase 2: backend recovers; concurrent goroutines race for the
	// single half-open probe after each cooldown. Exactly one wins it and
	// its success must close the circuit for everyone.
	sw.failing.Store(false)
	for round := 0; round < 50 && circuitState(b) != "closed"; round++ {
		clk.advance(policyCooldown)
		hammer(8, 5)
	}
	if st := circuitState(b); st != "closed" {
		t.Fatalf("breaker never recovered through half-open: state %s", st)
	}

	// Phase 3: a recovered circuit under concurrent load stays closed and
	// admits everything.
	rejectedBefore := b.Resilience().Rejected
	hammer(8, 25)
	if st, rs := circuitState(b), b.Resilience(); st != "closed" || rs.Rejected != rejectedBefore {
		t.Fatalf("closed circuit rejected calls: state %s, rejected %d -> %d",
			st, rejectedBefore, rs.Rejected)
	}
}
