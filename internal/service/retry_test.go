package service

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestFlakyInjectsFailures(t *testing.T) {
	tab := newMovieTable(t, 0)
	f := NewFlaky(tab, 2) // every 2nd call fails
	// Call 1 (invoke) succeeds, call 2 (fetch) fails.
	inv, err := f.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(context.Background()); !errors.Is(err, ErrTransient) {
		t.Fatalf("fetch err = %v, want transient", err)
	}
	if f.Injected() != 1 {
		t.Errorf("Injected = %d", f.Injected())
	}
	// Next fetch (call 3) succeeds.
	if _, err := inv.Fetch(context.Background()); err != nil {
		t.Fatalf("retry-able fetch failed hard: %v", err)
	}
	if f.Interface() != tab.Interface() || f.Stats().ChunkSize != 0 {
		t.Error("Flaky does not forward Interface/Stats")
	}
}

func TestFlakyDisabled(t *testing.T) {
	tab := newMovieTable(t, 0)
	f := NewFlaky(tab, 0)
	inv, err := f.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(context.Background()); err != nil {
		t.Errorf("disabled flaky failed: %v", err)
	}
}

func TestRetryRecoversFromTransientFailures(t *testing.T) {
	tab := newMovieTable(t, 1)
	f := NewFlaky(tab, 3)
	clk := &schedClock{now: time.Unix(0, 0)}
	p := NewPolicy(f, clk, 1)
	inv, err := p.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for {
		c, err := inv.Fetch(context.Background())
		if errors.Is(err, ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatalf("fetch failed despite retries: %v", err)
		}
		got += len(c.Tuples)
	}
	if got != 2 {
		t.Errorf("tuples = %d, want 2", got)
	}
	slept := clk.takeSlept()
	if p.Resilience().Retries == 0 || len(slept) == 0 {
		t.Fatal("no retries recorded despite injected failures")
	}
	// A first retry waits the base backoff, less at most half of it.
	if slept[0] <= policyBackoff/2 || slept[0] > policyBackoff {
		t.Errorf("first backoff = %v, want in (%v, %v]", slept[0], policyBackoff/2, policyBackoff)
	}
}

func TestRetryGivesUpAfterMax(t *testing.T) {
	tab := newMovieTable(t, 1)
	f := NewFlaky(tab, 1) // every call fails
	p := NewPolicy(f, &fakeClock{now: time.Unix(0, 0)}, 1)
	if _, err := p.Invoke(context.Background(), movieInput()); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v, want wrapped transient after give-up", err)
	}
	if rs := p.Resilience(); rs.Retries != policyRetries || rs.GiveUps != 1 {
		t.Errorf("retries %d, give-ups %d, want %d and 1", rs.Retries, rs.GiveUps, policyRetries)
	}
}

func TestRetryPassesThroughHardErrors(t *testing.T) {
	tab := newMovieTable(t, 1)
	p := NewPolicy(tab, &fakeClock{now: time.Unix(0, 0)}, 1)
	// Missing input is a hard error: no retries.
	if _, err := p.Invoke(context.Background(), Input{}); err == nil {
		t.Fatal("hard error swallowed")
	}
	if n := p.Resilience().Retries; n != 0 {
		t.Errorf("hard error retried %d times", n)
	}
	// Exhaustion passes through untouched.
	inv, err := p.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := inv.Fetch(context.Background()); errors.Is(err, ErrExhausted) {
			return
		}
	}
	t.Error("exhaustion never surfaced")
}

// cancelClock cancels a context on its first Sleep.
type cancelClock struct {
	fakeClock
	cancel context.CancelFunc
}

func (c *cancelClock) Sleep(d time.Duration) {
	c.cancel()
	c.fakeClock.Sleep(d)
}

func TestRetryRespectsContext(t *testing.T) {
	tab := newMovieTable(t, 1)
	f := NewFlaky(tab, 1)
	ctx, cancel := context.WithCancel(context.Background())
	p := NewPolicy(f, &cancelClock{fakeClock: fakeClock{now: time.Unix(0, 0)}, cancel: cancel}, 1)
	if _, err := p.Invoke(ctx, movieInput()); err == nil {
		t.Fatal("cancelled retry succeeded")
	}
	if n := p.Resilience().Retries; n > 1 {
		t.Errorf("kept retrying after cancel: %d", n)
	}
}

func TestRetryForwarding(t *testing.T) {
	tab := newMovieTable(t, 1)
	p := NewPolicy(tab, &fakeClock{now: time.Unix(0, 0)}, 1)
	if p.Interface() != tab.Interface() || p.Stats().ChunkSize != 1 || p.Unwrap() != Service(tab) {
		t.Error("Policy does not forward Interface/Stats/Unwrap")
	}
}

// giveUpSleeps records the backoffs of one operation that fails every
// attempt, under the policy seeded with seed.
func giveUpSleeps(t *testing.T, seed int64) []time.Duration {
	clk := &schedClock{now: time.Unix(0, 0)}
	p := NewPolicy(NewFlaky(newMovieTable(t, 0), 1), clk, seed)
	p.Invoke(context.Background(), movieInput())
	return clk.takeSlept()
}

func TestRetryJitterDeterministic(t *testing.T) {
	a, b := giveUpSleeps(t, 7), giveUpSleeps(t, 7)
	if len(a) == 0 {
		t.Fatal("no backoffs recorded")
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different backoff schedule: %v vs %v", a, b)
	}
	if c := giveUpSleeps(t, 8); reflect.DeepEqual(a, c) {
		t.Errorf("different seeds produced the identical jittered schedule %v", a)
	}
}

// The backoff doubles per attempt up to its cap, the eighth and last
// retry's 128 ms; each delay keeps at least half of its doubled base.
func TestRetryBackoffGrowsToCap(t *testing.T) {
	slept := giveUpSleeps(t, 7)
	if len(slept) != policyRetries {
		t.Fatalf("%d backoffs, want %d", len(slept), policyRetries)
	}
	for i, d := range slept {
		top := policyBackoff << i
		if d <= top/2 || d > top {
			t.Errorf("backoff %d = %v, want in (%v, %v]", i+1, d, top/2, top)
		}
	}
	if top := policyBackoff << (policyRetries - 1); top != 128*time.Millisecond {
		t.Errorf("largest backoff bound %v, want 128ms", top)
	}
}
