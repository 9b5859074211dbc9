package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"seco/internal/types"
)

// drainShared fetches every chunk of one binding through svc, returning
// the number of successful fetches and tuples seen.
func drainShared(t *testing.T, svc Service, in Input) (fetches, tuples int) {
	t.Helper()
	inv, err := svc.Invoke(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	for {
		c, err := inv.Fetch(context.Background())
		if errors.Is(err, ErrExhausted) {
			return fetches, tuples
		}
		if err != nil {
			t.Fatal(err)
		}
		fetches++
		tuples += len(c.Tuples)
	}
}

func TestShareMemoizesAcrossCallers(t *testing.T) {
	tab := newMovieTable(t, 1)
	wire := NewCounter(tab, nil)
	sh := NewShare(wire)

	f1, n1 := drainShared(t, sh, movieInput())
	wireAfterFirst := wire.Fetches()
	f2, n2 := drainShared(t, sh, movieInput())
	if f1 != f2 || n1 != n2 || n1 == 0 {
		t.Fatalf("replay differs: %d/%d vs %d/%d tuples", f1, n1, f2, n2)
	}
	if wire.Fetches() != wireAfterFirst {
		t.Errorf("second drain hit the wire: %d → %d", wireAfterFirst, wire.Fetches())
	}
	st := sh.Counters()
	if st.WireFetches != wireAfterFirst || st.MemoHits != int64(f2) || st.DedupHits != 0 {
		t.Errorf("counters: %+v (wire after first drain %d)", st, wireAfterFirst)
	}
	if got := int64(f1 + f2); got != st.WireFetches+st.MemoHits+st.DedupHits {
		t.Errorf("coherence: %d logical fetches vs wire %d + memo %d + dedup %d",
			got, st.WireFetches, st.MemoHits, st.DedupHits)
	}
}

// A reader that stops early leaves a prefix behind; a later reader of the
// same binding replays it from memory and pays only for what lies beyond.
func TestSharePrefixReuse(t *testing.T) {
	tab := newMovieTable(t, 1) // matching rows: 2 chunks of 1
	wire := NewCounter(tab, nil)
	sh := NewShare(wire)
	inv1, err := sh.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv1.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if wire.Fetches() != 1 {
		t.Fatalf("wire fetches = %d", wire.Fetches())
	}
	inv2, err := sh.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv2.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if wire.Fetches() != 1 {
		t.Errorf("prefix refetched: %d wire fetches", wire.Fetches())
	}
	if _, err := inv2.Fetch(context.Background()); err != nil {
		t.Fatal(err)
	}
	if wire.Fetches() != 2 {
		t.Errorf("extension fetches = %d, want 2", wire.Fetches())
	}
}

func TestShareRejectsMissingInput(t *testing.T) {
	sh := NewShare(newMovieTable(t, 0))
	if _, err := sh.Invoke(context.Background(), Input{}); err == nil {
		t.Error("unbound invoke accepted")
	}
	if sh.Interface() == nil || sh.Stats().Validate() != nil {
		t.Error("forwarding broken")
	}
}

func TestShareDistinguishesBindings(t *testing.T) {
	tab := newMovieTable(t, 0)
	wire := NewCounter(tab, nil)
	sh := NewShare(wire)
	other := movieBinding()
	other["Genres.Genre"] = types.String("Drama")
	drainShared(t, sh, movieInput())
	drainShared(t, sh, NewInput(other))
	if wire.Invocations() != 2 {
		t.Errorf("distinct bindings shared an entry: %d wire invocations", wire.Invocations())
	}
}

// Equal bindings key equally whichever order their paths went in; a
// binding carrying an extra path keys apart.
func TestShareInputKey(t *testing.T) {
	tab := newMovieTable(t, 0)
	inputs := tab.Interface().InputPaths()
	want := movieBinding()
	if len(inputs) != len(want) {
		t.Fatalf("interface inputs %v, fixture binds %d paths", inputs, len(want))
	}
	fwd, bwd := map[string]types.Value{}, map[string]types.Value{}
	for i := range inputs {
		fwd[inputs[i]] = want[inputs[i]]
		bwd[inputs[len(inputs)-1-i]] = want[inputs[len(inputs)-1-i]]
	}
	forward, backward := NewInput(fwd), NewInput(bwd)
	key := string(appendInputKey(nil, forward))
	if got := string(appendInputKey(nil, backward)); got != key {
		t.Errorf("insertion order changed the key: %q vs %q", got, key)
	}
	extra := movieBinding()
	extra["Title"] = types.String("Up")
	if got := string(appendInputKey(nil, NewInput(extra))); got == key {
		t.Errorf("extra path: key %q equals the key without it", got)
	}

	wire := NewCounter(tab, nil)
	sh := NewShare(wire)
	drainShared(t, sh, forward)
	drainShared(t, sh, backward)
	if wire.Invocations() != 1 {
		t.Errorf("equal bindings took %d wire invocations, want 1", wire.Invocations())
	}
}

func TestShareUnchunkedService(t *testing.T) {
	tab := newMovieTable(t, 0) // unchunked: one response carries all
	sh := NewShare(tab)
	for round := 0; round < 2; round++ {
		f, n := drainShared(t, sh, movieInput())
		if f != 1 || n != 2 {
			t.Fatalf("round %d: %d fetches, %d tuples", round, f, n)
		}
	}
	if st := sh.Counters(); st.WireFetches != 1 || st.MemoHits != 1 {
		t.Errorf("counters: %+v", st)
	}
}

func TestShareConcurrentCoherence(t *testing.T) {
	tab := newMovieTable(t, 1)
	wire := NewCounter(tab, nil)
	sh := NewShare(wire)

	const runs = 8
	logical := make([]int, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each goroutine models one run: its own Counter above the
			// shared layer, as the Invoker composes them.
			c := NewCounter(sh, nil)
			f, _ := drainShared(t, c, movieInput())
			logical[i] = f
		}(i)
	}
	wg.Wait()

	var total int64
	for i, f := range logical {
		if f != logical[0] {
			t.Errorf("run %d saw %d chunks, run 0 saw %d", i, f, logical[0])
		}
		total += int64(f)
	}
	st := sh.Counters()
	if wire.Fetches() != st.WireFetches {
		t.Errorf("wire saw %d fetches, share counted %d", wire.Fetches(), st.WireFetches)
	}
	if total != st.WireFetches+st.MemoHits+st.DedupHits {
		t.Errorf("coherence: %d logical fetches vs wire %d + memo %d + dedup %d",
			total, st.WireFetches, st.MemoHits, st.DedupHits)
	}
	// The ranked list has 2 matching chunks: everything beyond one wire
	// drain must have been absorbed by the sharing layer.
	if st.WireFetches != 2 {
		t.Errorf("wire fetches = %d, want 2", st.WireFetches)
	}
	if st.Saved() != total-st.WireFetches {
		t.Errorf("Saved() = %d, want %d", st.Saved(), total-st.WireFetches)
	}
}

// failingService errors the first Invoke, then recovers — for asserting
// that Share never caches failures and waiters retry as leaders.
type failingService struct {
	Service
	mu       sync.Mutex
	failures int
}

func (f *failingService) Invoke(ctx context.Context, in Input) (Invocation, error) {
	f.mu.Lock()
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		return nil, fmt.Errorf("transient outage")
	}
	return f.Service.Invoke(ctx, in)
}

func TestShareDoesNotCacheErrors(t *testing.T) {
	flaky := &failingService{Service: newMovieTable(t, 1), failures: 1}
	sh := NewShare(flaky)
	inv, err := sh.Invoke(context.Background(), movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(context.Background()); err == nil {
		t.Fatal("first fetch should surface the outage")
	}
	if st := sh.Counters(); st.WireFetches != 0 {
		t.Fatalf("failed fetch counted: %+v", st)
	}
	// The failure was not cached: the next caller leads its own attempt
	// and succeeds.
	if f, n := drainShared(t, sh, movieInput()); f != 2 || n == 0 {
		t.Errorf("recovery drain: %d fetches, %d tuples", f, n)
	}
}

func TestInvokerRunScopeIsolation(t *testing.T) {
	tab := newMovieTable(t, 1)
	inv := NewInvoker(map[string]Service{"M": tab, "N": tab}, InvokerOptions{})
	if inv.Sharing() {
		t.Fatal("sharing on without opt-in")
	}
	a, b := inv.NewRun(), inv.NewRun()
	drainShared(t, a.Counter("M"), movieInput())
	if a.Counter("M").Fetches() == 0 {
		t.Error("run A counted nothing")
	}
	if b.Counter("M").Fetches() != 0 || a.Counter("N").Fetches() != 0 {
		t.Error("counters leaked across runs or aliases")
	}
	if a.Counter("Z") != nil {
		t.Error("unbound alias returned a counter")
	}
	if len(a.Counters()) != 2 {
		t.Errorf("counters: %v", a.Counters())
	}
}

func TestInvokerSharesPerServiceValue(t *testing.T) {
	tab := newMovieTable(t, 1)
	other := newMovieTable(t, 1)
	inv := NewInvoker(map[string]Service{"M": tab, "N": tab, "O": other},
		InvokerOptions{Share: true})
	if !inv.Sharing() {
		t.Fatal("sharing off")
	}
	scope := inv.NewRun()
	fM, _ := drainShared(t, scope.Counter("M"), movieInput())
	fN, _ := drainShared(t, scope.Counter("N"), movieInput())
	fO, _ := drainShared(t, scope.Counter("O"), movieInput())
	st := inv.ShareStats()
	// M and N share one layer over the same service value; O has its own.
	if st.WireFetches != int64(fM+fO) {
		t.Errorf("wire fetches = %d, want %d", st.WireFetches, fM+fO)
	}
	if st.MemoHits != int64(fN) {
		t.Errorf("memo hits = %d, want %d (alias N replays alias M's fetches)", st.MemoHits, fN)
	}
	laneM, _ := inv.Lane("M")
	laneN, _ := inv.Lane("N")
	laneO, _ := inv.Lane("O")
	if laneM != laneN || laneM == laneO {
		t.Error("share layers not grouped by service value")
	}
}
