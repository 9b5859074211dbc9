package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seco/internal/mart"
)

// fakeClock is a manually-advanced TimeSource: Sleep charges the slept
// duration into the current instant.
type fakeClock struct {
	mu    sync.Mutex
	now   time.Time
	slept time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
	c.slept += d
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func (c *fakeClock) sleptTotal() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.slept
}

// switchSvc fails Invoke transiently while failing is set.
type switchSvc struct {
	inner   Service
	failing atomic.Bool
	calls   atomic.Int64
}

func (s *switchSvc) Interface() *mart.Interface { return s.inner.Interface() }
func (s *switchSvc) Stats() Stats               { return s.inner.Stats() }
func (s *switchSvc) Unwrap() Service            { return s.inner }

func (s *switchSvc) Invoke(ctx context.Context, in Input) (Invocation, error) {
	s.calls.Add(1)
	if s.failing.Load() {
		return nil, fmt.Errorf("backend down: %w", ErrTransient)
	}
	return s.inner.Invoke(ctx, in)
}

// circuitState reads the policy's circuit state.
func circuitState(p *Policy) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.String()
}

func TestBreakerStateMachine(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	clk := &fakeClock{now: time.Unix(0, 0)}
	p := NewPolicy(sw, clk, 1)
	ctx := context.Background()

	// Three consecutive given-up operations trip the circuit.
	sw.failing.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, ErrTransient) {
			t.Fatalf("failure %d: err = %v", i, err)
		}
	}
	if st, rs := circuitState(p), p.Resilience(); st != "open" || rs.Tripped != 1 {
		t.Fatalf("after threshold failures: state %s, tripped %d", st, rs.Tripped)
	}

	// Open circuit rejects without touching the service.
	before := sw.calls.Load()
	if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("open circuit err = %v, want ErrOpen", err)
	}
	if sw.calls.Load() != before || p.Resilience().Rejected != 1 {
		t.Fatalf("open circuit touched the service (calls %d→%d, rejected %d)",
			before, sw.calls.Load(), p.Resilience().Rejected)
	}

	// After the cooldown a half-open probe goes through; success closes.
	clk.advance(policyCooldown)
	sw.failing.Store(false)
	if _, err := p.Invoke(ctx, movieInput()); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if st := circuitState(p); st != "closed" {
		t.Fatalf("after successful probe: state %s", st)
	}

	// Trip again; a failing probe re-opens immediately.
	sw.failing.Store(true)
	for i := 0; i < 3; i++ {
		p.Invoke(ctx, movieInput())
	}
	if st, rs := circuitState(p), p.Resilience(); st != "open" || rs.Tripped != 2 {
		t.Fatalf("second trip: state %s, tripped %d", st, rs.Tripped)
	}
	clk.advance(policyCooldown)
	if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, ErrTransient) {
		t.Fatalf("failing probe err = %v", err)
	}
	if st, rs := circuitState(p), p.Resilience(); st != "open" || rs.Tripped != 3 {
		t.Fatalf("after failing probe: state %s, tripped %d", st, rs.Tripped)
	}
	if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("re-opened circuit admitted a call: %v", err)
	}
}

// Hard errors (bad bindings, exhaustion, cancellation) are neutral: they
// neither trip nor heal the circuit.
func TestBreakerIgnoresNeutralErrors(t *testing.T) {
	p := NewPolicy(newMovieTable(t, 0), &fakeClock{now: time.Unix(0, 0)}, 1)
	ctx := context.Background()
	for i := 0; i < 2*policyThreshold; i++ {
		if _, err := p.Invoke(ctx, Input{}); err == nil {
			t.Fatal("missing input accepted")
		}
	}
	if st, rs := circuitState(p), p.Resilience(); st != "closed" || rs.Tripped != 0 {
		t.Fatalf("neutral errors moved the circuit: state %s, tripped %d", st, rs.Tripped)
	}
}

// TestPolicyChargesItsClock: backoff sleeps and the cooldown run on the
// clock the policy was built with, and on nothing else.
func TestPolicyChargesItsClock(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	sw.failing.Store(true)
	clk := &fakeClock{now: time.Unix(0, 0)}
	p := NewPolicy(sw, clk, 1)
	ctx := context.Background()
	for i := 0; i < policyThreshold; i++ {
		p.Invoke(ctx, movieInput())
	}
	if clk.sleptTotal() == 0 {
		t.Fatal("retry backoff never reached the policy's clock")
	}
	if rs := p.Resilience(); rs.Retries != policyThreshold*policyRetries || rs.Tripped != 1 {
		t.Fatalf("stats %+v, want %d retries and one trip", rs, policyThreshold*policyRetries)
	}
	before := sw.calls.Load()
	clk.advance(policyCooldown - time.Nanosecond)
	if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("before the cooldown: err = %v, want ErrOpen", err)
	}
	clk.advance(time.Nanosecond)
	sw.failing.Store(false)
	if _, err := p.Invoke(ctx, movieInput()); err != nil {
		t.Fatalf("after the cooldown the probe failed: %v", err)
	}
	if sw.calls.Load() != before+1 {
		t.Fatalf("backend saw %d calls across the cooldown, want 1 (the probe)", sw.calls.Load()-before)
	}
}

// A spent budget aborts retries before their backoff and is enforced at
// the Counter choke point.
func TestBudgetShortCircuits(t *testing.T) {
	spent := errors.New("budget spent")
	ctx := WithBudget(context.Background(), func() error { return spent })

	clk := &fakeClock{now: time.Unix(0, 0)}
	p := NewPolicy(NewFlaky(newMovieTable(t, 0), 1), clk, 1)
	if _, err := p.Invoke(ctx, movieInput()); !errors.Is(err, spent) {
		t.Fatalf("retry under spent budget: err = %v, want budget error", err)
	}
	if clk.sleptTotal() != 0 || p.Resilience().Retries != 0 {
		t.Errorf("spent budget still slept %v / retried %d times", clk.sleptTotal(), p.Resilience().Retries)
	}

	// The Counter holds its run's probe, bound once per run.
	scope := NewInvoker(map[string]Service{"M": newMovieTable(t, 0)}, InvokerOptions{}).NewRun()
	c := scope.Counter("M")
	scope.Bind(func() error { return spent }, nil, false)
	if _, err := c.Invoke(context.Background(), movieInput()); !errors.Is(err, spent) {
		t.Fatalf("counter under spent budget: err = %v, want budget error", err)
	}

	// A healthy budget is invisible.
	scope.Bind(func() error { return nil }, nil, false)
	if _, err := c.Invoke(context.Background(), movieInput()); err != nil {
		t.Fatalf("healthy budget blocked the call: %v", err)
	}
	if err := CheckBudget(context.Background()); err != nil {
		t.Fatalf("no budget in context must check clean, got %v", err)
	}
}

func TestCollectResilienceSumsChain(t *testing.T) {
	flaky := NewFlaky(newMovieTable(t, 1), 3)
	chain := NewPolicy(flaky, &fakeClock{now: time.Unix(0, 0)}, 1)
	ctx := context.Background()
	inv, err := chain.Invoke(ctx, movieInput())
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := inv.Fetch(ctx); errors.Is(err, ErrExhausted) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	stats := CollectResilience(chain)
	if stats.Injected == 0 || stats.Retries == 0 {
		t.Errorf("chain stats vacuous: %+v", stats)
	}
	if stats.Injected != flaky.Resilience().Injected || stats.Retries != chain.Resilience().Retries {
		t.Errorf("chain stats %+v do not match layer stats", stats)
	}
}

// TestResilienceCountersRace hammers a full middleware chain from many
// goroutines while readers poll the counters; run with -race this is the
// regression test for the Flaky/Policy data race.
func TestResilienceCountersRace(t *testing.T) {
	// A failure every fifth call never fails a whole retried operation,
	// so the circuit never trips: pure counter contention.
	flaky := NewFlaky(newMovieTable(t, 1), 5)
	chain := NewPolicy(flaky, &fakeClock{now: time.Unix(0, 0)}, 1)
	ctx := context.Background()

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent readers
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			CollectResilience(chain)
			circuitState(chain)
			flaky.Injected()
		}
	}()
	var workers sync.WaitGroup
	for g := 0; g < 8; g++ {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for i := 0; i < 25; i++ {
				inv, err := chain.Invoke(ctx, movieInput())
				if err != nil {
					continue
				}
				for {
					if _, err := inv.Fetch(ctx); err != nil {
						break
					}
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	<-readerDone
	if flaky.Injected() == 0 {
		t.Error("hammer injected nothing; race test is vacuous")
	}
	stats := CollectResilience(chain)
	if stats.Injected != int64(flaky.Injected()) {
		t.Errorf("stats disagree: %d vs %d", stats.Injected, flaky.Injected())
	}
	if stats.Tripped != 0 {
		t.Errorf("circuit tripped %d times under isolated failures", stats.Tripped)
	}
}

// sweepPolicy builds the chaos sweep's call policy over svc on clk.
// TestPolicyBackoffSchedule builds its policy only through this helper,
// so the pinned schedule and the test around it stay byte-identical
// whatever layers implement the policy.
func sweepPolicy(svc Service, clk TimeSource, seed int64) Service {
	return NewPolicy(svc, clk, seed)
}
