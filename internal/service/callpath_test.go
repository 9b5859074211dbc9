package service

import (
	"context"
	"fmt"
	"testing"
	"time"

	"seco/internal/obs"
)

// memoLane builds an engine-shaped invoker over one chunked table —
// Counter → Hedge → Share, metered — and memoizes the movie binding's
// first chunk.
func memoLane(t *testing.T) (*Invoker, *RunScope) {
	t.Helper()
	inv := NewInvoker(map[string]Service{"M": newMovieTable(t, 1)}, InvokerOptions{
		Share: true, Hedge: true, Metrics: obs.NewRegistry(),
	})
	drainShared(t, inv.NewRun().Counter("M"), movieInput())
	return inv, inv.NewRun()
}

// TestMemoHitFetchAllocs guards the call path of an untraced memo hit:
// a Fetch through the run's Counter, the Hedge and the Share layer
// replays a memoized chunk without allocating.
func TestMemoHitFetchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	inv, scope := memoLane(t)
	scope.Bind(func() error { return nil }, nil, false)
	ctx := context.Background()
	const runs = 100
	invs := make([]Invocation, runs+1) // AllocsPerRun adds a warm-up run
	for i := range invs {
		var err error
		if invs[i], err = scope.Counter("M").Invoke(ctx, movieInput()); err != nil {
			t.Fatal(err)
		}
	}
	hits := inv.ShareStats().MemoHits
	next := 0
	got := testing.AllocsPerRun(runs, func() {
		if _, err := invs[next].Fetch(ctx); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if got != 0 {
		t.Errorf("untraced memo-hit Fetch allocates %.0f objects, want 0", got)
	}
	if n := inv.ShareStats().MemoHits - hits; n != runs+1 {
		t.Errorf("%d memo hits, want %d: the fetches reached the wire", n, runs+1)
	}
}

// TestShareInvokeHitAllocs guards the Share key lookup: an Invoke whose
// binding already has an entry allocates only the caller's invocation.
func TestShareInvokeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	sh := NewShare(newMovieTable(t, 1))
	in := movieInput()
	ctx := context.Background()
	if _, err := sh.Invoke(ctx, in); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(100, func() {
		if _, err := sh.Invoke(ctx, in); err != nil {
			t.Fatal(err)
		}
	})
	if got != 1 {
		t.Errorf("Share.Invoke hit allocates %.0f objects, want 1 (the invocation)", got)
	}
}

// TestTracedCallsRecordSpans checks that a traced run still records every
// span and attribute of the call path: the Counter's invoke and fetch
// calls (chunk depth, tuples served) and Share's memo-hit event.
func TestTracedCallsRecordSpans(t *testing.T) {
	_, scope := memoLane(t)
	scope.Bind(nil, nil, true)
	tr := obs.NewTracer()
	tr.Bind(&fakeClock{now: time.Unix(0, 0)}, true)
	ctx := obs.WithScope(context.Background(), tr.Scope("M"))
	inv, err := scope.Counter("M").Invoke(ctx, movieInput())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inv.Fetch(ctx); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, sp := range tr.Snapshot().Spans {
		got = append(got, fmt.Sprintf("%s %s %v", sp.Kind, sp.Name, sp.Attrs))
	}
	want := []string{
		"call invoke map[]",
		"event share-memo-hit map[chunk:1]",
		"call fetch map[chunk:1 tuples:1]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traced spans:\n got %q\nwant %q", got, want)
	}
}
