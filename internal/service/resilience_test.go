package service

import (
	"context"
	"errors"
	"fmt"
	"reflect"
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

func TestBreakerStateMachine(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	b := NewBreaker(sw)
	b.Threshold = 3
	b.Cooldown = time.Minute
	clk := &fakeClock{now: time.Unix(0, 0)}
	b.SetTimeSource(clk)
	ctx := context.Background()

	// Three consecutive transient failures trip the circuit.
	sw.failing.Store(true)
	for i := 0; i < 3; i++ {
		if _, err := b.Invoke(ctx, movieInput()); !errors.Is(err, ErrTransient) {
			t.Fatalf("failure %d: err = %v", i, err)
		}
	}
	if b.State() != "open" || b.Tripped() != 1 {
		t.Fatalf("after threshold failures: state %s, tripped %d", b.State(), b.Tripped())
	}

	// Open circuit rejects without touching the service.
	before := sw.calls.Load()
	if _, err := b.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("open circuit err = %v, want ErrOpen", err)
	}
	if sw.calls.Load() != before || b.Rejected() != 1 {
		t.Fatalf("open circuit touched the service (calls %d→%d, rejected %d)",
			before, sw.calls.Load(), b.Rejected())
	}

	// After the cooldown a half-open probe goes through; success closes.
	clk.advance(b.Cooldown)
	sw.failing.Store(false)
	if _, err := b.Invoke(ctx, movieInput()); err != nil {
		t.Fatalf("half-open probe failed: %v", err)
	}
	if b.State() != "closed" {
		t.Fatalf("after successful probe: state %s", b.State())
	}

	// Trip again; a failing probe re-opens immediately.
	sw.failing.Store(true)
	for i := 0; i < 3; i++ {
		b.Invoke(ctx, movieInput())
	}
	if b.State() != "open" || b.Tripped() != 2 {
		t.Fatalf("second trip: state %s, tripped %d", b.State(), b.Tripped())
	}
	clk.advance(b.Cooldown)
	if _, err := b.Invoke(ctx, movieInput()); !errors.Is(err, ErrTransient) {
		t.Fatalf("failing probe err = %v", err)
	}
	if b.State() != "open" || b.Tripped() != 3 {
		t.Fatalf("after failing probe: state %s, tripped %d", b.State(), b.Tripped())
	}
	if _, err := b.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("re-opened circuit admitted a call: %v", err)
	}
}

func TestBreakerWithoutClockStaysOpenUntilReset(t *testing.T) {
	sw := &switchSvc{inner: newMovieTable(t, 0)}
	sw.failing.Store(true)
	b := NewBreaker(sw)
	b.Threshold = 2
	ctx := context.Background()
	b.Invoke(ctx, movieInput())
	b.Invoke(ctx, movieInput())
	if b.State() != "open" {
		t.Fatalf("state %s", b.State())
	}
	if _, err := b.Invoke(ctx, movieInput()); !errors.Is(err, ErrOpen) {
		t.Fatalf("err = %v, want ErrOpen (no clock, no cooldown)", err)
	}
	sw.failing.Store(false)
	b.Reset()
	if _, err := b.Invoke(ctx, movieInput()); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// Hard errors (bad bindings, exhaustion, cancellation) are neutral: they
// neither trip nor heal the circuit.
func TestBreakerIgnoresNeutralErrors(t *testing.T) {
	b := NewBreaker(newMovieTable(t, 0))
	b.Threshold = 2
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := b.Invoke(ctx, Input{}); err == nil {
			t.Fatal("missing input accepted")
		}
	}
	if b.State() != "closed" || b.Tripped() != 0 {
		t.Fatalf("neutral errors moved the circuit: state %s, tripped %d", b.State(), b.Tripped())
	}
}

func TestRetryJitterDeterministic(t *testing.T) {
	record := func(seed int64) []time.Duration {
		f := NewFlaky(newMovieTable(t, 0), 1) // every call fails
		r := NewRetry(f)
		r.MaxRetries = 4
		r.Jitter = 0.5
		r.Seed = seed
		var slept []time.Duration
		r.Sleep = func(d time.Duration) { slept = append(slept, d) }
		r.Invoke(context.Background(), movieInput())
		return slept
	}
	a, b := record(7), record(7)
	if len(a) == 0 {
		t.Fatal("no backoffs recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different backoff schedule: %v vs %v", a, b)
	}
	if c := record(8); reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced the identical jittered schedule %v", a)
	}
	for _, d := range a {
		if d > 160*time.Millisecond || d <= 0 {
			t.Errorf("jittered backoff %v outside (0, base*2^tries]", d)
		}
	}
}

func TestRetryBackoffGrowsToCap(t *testing.T) {
	f := NewFlaky(newMovieTable(t, 0), 1)
	r := NewRetry(f)
	r.MaxRetries = 5
	r.BaseBackoff = 10 * time.Millisecond
	r.MaxBackoff = 40 * time.Millisecond
	var slept []time.Duration
	r.Sleep = func(d time.Duration) { slept = append(slept, d) }
	r.Invoke(context.Background(), movieInput())
	want := []time.Duration{
		10 * time.Millisecond, 20 * time.Millisecond,
		40 * time.Millisecond, 40 * time.Millisecond, 40 * time.Millisecond,
	}
	if !reflect.DeepEqual(slept, want) {
		t.Errorf("backoffs = %v, want %v", slept, want)
	}
}

// Backoff flows through the installed TimeSource when no explicit Sleep
// hook is set — and InstallTimeSource reaches every layer of a chain.
func TestInstallTimeSourceWalksChain(t *testing.T) {
	flaky := NewFlaky(newMovieTable(t, 0), 1)
	chain := NewBreaker(NewRetry(flaky))
	clk := &fakeClock{now: time.Unix(0, 0)}
	InstallTimeSource(chain, clk)
	chain.Invoke(context.Background(), movieInput())
	if clk.sleptTotal() == 0 {
		t.Error("retry backoff never reached the installed TimeSource")
	}
}

// A spent budget aborts retries before their backoff and is enforced at
// the Counter choke point.
func TestBudgetShortCircuits(t *testing.T) {
	spent := errors.New("budget spent")
	ctx := WithBudget(context.Background(), func() error { return spent })

	f := NewFlaky(newMovieTable(t, 0), 1)
	r := NewRetry(f)
	var slept int
	r.Sleep = func(time.Duration) { slept++ }
	if _, err := r.Invoke(ctx, movieInput()); !errors.Is(err, spent) {
		t.Fatalf("retry under spent budget: err = %v, want budget error", err)
	}
	if slept != 0 || r.Retried() != 0 {
		t.Errorf("spent budget still slept %d times / retried %d times", slept, r.Retried())
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
	retry := NewRetry(flaky)
	retry.Sleep = func(time.Duration) {}
	chain := NewBreaker(retry)
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
	if stats.Injected != flaky.Resilience().Injected || stats.Retries != retry.Resilience().Retries {
		t.Errorf("chain stats %+v do not match layer stats", stats)
	}
}

// TestResilienceCountersRace hammers a full middleware chain from many
// goroutines while readers poll the counters; run with -race this is the
// regression test for the Flaky/Retry data race.
func TestResilienceCountersRace(t *testing.T) {
	flaky := NewFlaky(newMovieTable(t, 1), 5)
	retry := NewRetry(flaky)
	retry.Jitter = 0.3
	retry.Sleep = func(time.Duration) {}
	chain := NewBreaker(retry)
	chain.Threshold = 1000 // never trips: pure counter contention
	ctx := context.Background()

	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() { // concurrent readers and re-installations
		defer close(readerDone)
		clk := &fakeClock{now: time.Unix(0, 0)}
		for {
			select {
			case <-stop:
				return
			default:
			}
			CollectResilience(chain)
			InstallTimeSource(chain, clk)
			chain.State()
			retry.Retried()
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
}
