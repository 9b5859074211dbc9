package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"seco/internal/admission"
	"seco/internal/query"
)

// coldQuery is the canonical triangle query with one more selection that
// every artist passes (Draw is never negative): the answer is the
// canonical one, the text — and so the plan-cache key — is new.
func coldQuery(n int) string {
	return strings.Replace(query.TriangleExampleText, "\nrank",
		fmt.Sprintf(" and A.Draw > -%d\nrank", n), 1)
}

// openServer serves the triangle scenario with admission opened wide, so
// every request of a burst is admitted at the full tier.
func openServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(Config{
		Scenario: "triangle", Seed: 7, K: 5, Parallelism: 2, CacheCalls: true,
		Admission: admission.Config{Capacity: 4096, TenantRate: 1e9, MaxDeadline: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func queryBody(t *testing.T, text string) string {
	t.Helper()
	raw, err := json.Marshal(queryRequest{Query: text, DeadlineMS: 3600000})
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestPlanCacheSingleFlight sends 64 concurrent requests for one query the
// server has never seen: exactly one of them plans, the rest wait for
// that plan and count as hits, and all get the same answer.
func TestPlanCacheSingleFlight(t *testing.T) {
	s, ts := openServer(t)
	body := queryBody(t, coldQuery(1))
	misses, hits := s.inst.misses.Value(), s.inst.hits.Value()

	const clients = 64
	bodies := make([]queryResponse, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			code, _, raw := postQuery(t, ts, body, nil)
			if code != http.StatusOK {
				t.Errorf("client %d: status %d: %s", c, code, raw)
				return
			}
			bodies[c] = decodeResponse(t, raw)
			// Concurrent runs advance the one virtual clock they share, so
			// a run's elapsed time includes its neighbours' charged latency;
			// everything else in the body must agree.
			bodies[c].ElapsedMS = 0
		}(c)
	}
	wg.Wait()
	if got := s.inst.misses.Value() - misses; got != 1 {
		t.Errorf("%d concurrent requests for one new query planned %d times, want 1", clients, got)
	}
	if got := s.inst.hits.Value() - hits; got != clients-1 {
		t.Errorf("plan-cache hits rose by %d, want %d", got, clients-1)
	}
	if len(bodies[0].Combinations) == 0 {
		t.Fatal("the new query returned nothing; the comparison is vacuous")
	}
	for c := 1; c < clients; c++ {
		if !reflect.DeepEqual(bodies[c], bodies[0]) {
			t.Fatalf("client %d answered differently:\n got %+v\nwant %+v", c, bodies[c], bodies[0])
		}
	}
}

// TestPlanCacheEvictsLeastRecentlyUsed interleaves 200 one-off queries
// with requests for the canonical one. Each one-off misses once; the
// canonical entry, touched between them, is never the least recently used
// and never plans again; and with the cache full after 63 insertions
// beside it, the remaining 137 each evict exactly one entry.
func TestPlanCacheEvictsLeastRecentlyUsed(t *testing.T) {
	s, ts := openServer(t)
	canonical := queryBody(t, "")
	canonicalEntry, err := s.entryFor(s.defaultText, s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	misses, evictions := s.inst.misses.Value(), s.inst.evictions.Value()

	const cold = 200
	for n := 1; n <= cold; n++ {
		if code, _, raw := postQuery(t, ts, queryBody(t, coldQuery(n)), nil); code != http.StatusOK {
			t.Fatalf("cold query %d: status %d: %s", n, code, raw)
		}
		before := s.inst.misses.Value()
		if code, _, raw := postQuery(t, ts, canonical, nil); code != http.StatusOK {
			t.Fatalf("canonical query after %d cold ones: status %d: %s", n, code, raw)
		}
		if s.inst.misses.Value() != before {
			t.Fatalf("canonical query planned again after %d cold ones", n)
		}
	}
	if got := s.inst.misses.Value() - misses; got != cold {
		t.Errorf("misses rose by %d, want %d", got, cold)
	}
	if got := s.inst.evictions.Value() - evictions; got != cold-(maxPlans-1) {
		t.Errorf("evictions rose by %d, want %d", got, cold-(maxPlans-1))
	}
	again, err := s.entryFor(s.defaultText, s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if again != canonicalEntry {
		t.Error("the canonical entry was replaced")
	}
	s.planMu.Lock()
	resident, ordered := len(s.plans), s.lru.Len()
	s.planMu.Unlock()
	if resident != maxPlans || ordered != maxPlans {
		t.Errorf("%d entries resident, %d in LRU order, want %d of each", resident, ordered, maxPlans)
	}
}

// TestCachedPlanPreparesOnce checks that requests against a cached plan
// run the one Prepared built on the miss path: the miss counter does not
// move and the entry keeps its Prepared.
func TestCachedPlanPreparesOnce(t *testing.T) {
	s, ts := openServer(t)
	body := queryBody(t, coldQuery(1))
	misses := s.inst.misses.Value()
	if code, _, raw := postQuery(t, ts, body, nil); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	entry, err := s.entryFor(coldQuery(1), s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	prep := entry.prep
	if prep == nil {
		t.Fatal("cached entry carries no Prepared")
	}
	for i := 0; i < 20; i++ {
		if code, _, raw := postQuery(t, ts, body, nil); code != http.StatusOK {
			t.Fatalf("repeat %d: status %d: %s", i, code, raw)
		}
	}
	if got := s.inst.misses.Value() - misses; got != 1 {
		t.Errorf("21 requests for one query planned %d times, want 1", got)
	}
	again, err := s.entryFor(coldQuery(1), s.cfg.K)
	if err != nil {
		t.Fatal(err)
	}
	if again != entry || again.prep != prep {
		t.Error("the cached entry or its Prepared was rebuilt")
	}
}

// TestFailedPlanIsNotCached checks that a query that does not parse is
// answered 400 every time and leaves nothing behind in the cache.
func TestFailedPlanIsNotCached(t *testing.T) {
	s, ts := openServer(t)
	body := queryBody(t, "DEFINE nonsense")
	for i := 0; i < 3; i++ {
		if code, _, _ := postQuery(t, ts, body, nil); code != http.StatusBadRequest {
			t.Fatalf("attempt %d: status %d, want 400", i, code)
		}
	}
	s.planMu.Lock()
	defer s.planMu.Unlock()
	if len(s.plans) != 1 || s.lru.Len() != 1 {
		t.Errorf("%d entries (%d ordered) after failed plans, want the canonical one alone", len(s.plans), s.lru.Len())
	}
}

// TestQueryBodyIsBounded checks the /query body limit: a body past 1 MiB
// is refused with 413, a malformed one within it with 400 as before.
func TestQueryBodyIsBounded(t *testing.T) {
	_, ts := openServer(t)
	big := `{"query":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	if code, _, _ := postQuery(t, ts, big, nil); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", code)
	}
	if code, _, _ := postQuery(t, ts, `{"query":"`+strings.Repeat("x", 1024), nil); code != http.StatusBadRequest {
		t.Errorf("truncated body: status %d, want 400", code)
	}
	if code, _, raw := postQuery(t, ts, `{}`, nil); code != http.StatusOK {
		t.Errorf("small body: status %d: %s", code, raw)
	}
}
