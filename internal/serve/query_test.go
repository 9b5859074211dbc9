package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"seco/internal/admission"
	"seco/internal/chaos"
	"seco/internal/engine"
	"seco/internal/service"
)

// postQuery sends one POST /query and decodes the response body.
func postQuery(t *testing.T, ts *httptest.Server, body string, headers map[string]string) (int, http.Header, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/query", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header, raw
}

func decodeResponse(t *testing.T, raw []byte) queryResponse {
	t.Helper()
	var resp queryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("invalid response JSON: %v\n%s", err, raw)
	}
	return resp
}

func TestQueryAdmitFullRun(t *testing.T) {
	_, ts := startServer(t)
	code, _, raw := postQuery(t, ts, `{"tenant":"alice"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.Tier != "admit" || resp.Reason != "ok" {
		t.Fatalf("tier %s/%s, want admit/ok", resp.Tier, resp.Reason)
	}
	if resp.Tenant != "alice" {
		t.Fatalf("tenant %q, want alice", resp.Tenant)
	}
	if resp.Degraded != nil {
		t.Fatalf("unexpected degradation: %+v", resp.Degraded)
	}
	if len(resp.Combinations) == 0 || resp.CertifiedK != len(resp.Combinations) {
		t.Fatalf("combinations %d, certified %d — want a full certified result",
			len(resp.Combinations), resp.CertifiedK)
	}
}

func TestQueryEmptyBodyAndHeaderTenant(t *testing.T) {
	s, ts := startServer(t)
	code, _, raw := postQuery(t, ts, "", map[string]string{"X-Seco-Tenant": "bob"})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	if resp := decodeResponse(t, raw); resp.Tenant != "bob" {
		t.Fatalf("tenant %q, want header tenant bob", resp.Tenant)
	}
	if got := s.reg.Counter("seco.serve.queries").Value(); got != 1 {
		t.Fatalf("queries counter %d, want 1", got)
	}
}

func TestQueryPerRequestKHitsPlanCache(t *testing.T) {
	s, ts := startServer(t)
	code, _, raw := postQuery(t, ts, `{"k":3}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if len(resp.Combinations) == 0 || len(resp.Combinations) > 3 {
		t.Fatalf("got %d combinations for k=3", len(resp.Combinations))
	}
	misses := s.reg.Counter("seco.serve.plan_cache.misses").Value()
	code, _, _ = postQuery(t, ts, `{"k":3}`, nil)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d", code)
	}
	if got := s.reg.Counter("seco.serve.plan_cache.misses").Value(); got != misses {
		t.Fatalf("repeat (query,k) re-planned: misses %d -> %d", misses, got)
	}
	if got := s.reg.Counter("seco.serve.plan_cache.hits").Value(); got == 0 {
		t.Fatal("repeat (query,k) did not hit the plan cache")
	}
}

func TestQueryShedTierDegrades(t *testing.T) {
	// 40% of the deadline already spent queueing puts admission in the
	// degrade tier; the shed budget (half the remainder, here 30ms of
	// simulated time) is far below the canonical run's cost, so the run
	// must come back as a certified partial with the load-shed reason.
	_, ts := startServer(t)
	code, _, raw := postQuery(t, ts, `{"deadline_ms":100,"tenant":"alice"}`,
		map[string]string{"X-Seco-Queued-Ns": fmt.Sprint(40 * 1000 * 1000)})
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.Tier != "degrade" || resp.Reason != "queued" {
		t.Fatalf("tier %s/%s, want degrade/queued", resp.Tier, resp.Reason)
	}
	if resp.BudgetMS != 30 {
		t.Fatalf("budget %vms, want (100-40)/2 = 30ms", resp.BudgetMS)
	}
	if resp.Degraded == nil || resp.Degraded.Reason != string(engine.DegradeShed) {
		t.Fatalf("degradation %+v, want reason %q", resp.Degraded, engine.DegradeShed)
	}
	if resp.CertifiedK > len(resp.Combinations) {
		t.Fatalf("certified %d > returned %d", resp.CertifiedK, len(resp.Combinations))
	}
}

// A deadline too large for time.Duration caps at admission's MaxDeadline
// instead of wrapping negative and falling back to the default: the budget
// never falls as deadline_ms grows.
func TestQueryBudgetNeverFallsAsDeadlineGrows(t *testing.T) {
	_, ts := startServer(t)
	last := 0.0
	for _, ms := range []string{"1", "50", "5000", "10000", "60000", "9.2e12", "1e13", "1e300"} {
		code, _, raw := postQuery(t, ts, `{"deadline_ms":`+ms+`}`, nil)
		if code != http.StatusOK {
			t.Fatalf("deadline_ms %s: status %d: %s", ms, code, raw)
		}
		budget := decodeResponse(t, raw).BudgetMS
		if budget < last {
			t.Errorf("deadline_ms %s: budget %vms, below the %vms of a shorter deadline", ms, budget, last)
		}
		last = budget
	}
	if last != 10000 {
		t.Errorf("deadline_ms 1e300: budget %vms, want MaxDeadline's 10000ms", last)
	}
}

func TestQueryDeadlineBudgetDegrades(t *testing.T) {
	// A tight client deadline admitted at the full tier still expires
	// mid-run; the degradation must name the deadline, not load shedding.
	_, ts := startServer(t)
	code, _, raw := postQuery(t, ts, `{"deadline_ms":6,"tenant":"alice"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	resp := decodeResponse(t, raw)
	if resp.Tier != "admit" {
		t.Fatalf("tier %s, want admit", resp.Tier)
	}
	if resp.Degraded == nil || resp.Degraded.Reason != string(engine.DegradeDeadline) {
		t.Fatalf("degradation %+v, want reason %q", resp.Degraded, engine.DegradeDeadline)
	}
}

func TestQueryTenantQuotaRejects(t *testing.T) {
	_, ts := startServerWith(t, Config{
		Scenario: "movienight", Seed: 7, K: 10, Parallelism: 2, CacheCalls: true,
		Admission: admission.Config{TenantRate: 1, TenantBurst: 1},
	})
	code, _, raw := postQuery(t, ts, `{"tenant":"hot"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("first query status %d: %s", code, raw)
	}
	code, hdr, raw := postQuery(t, ts, `{"tenant":"hot"}`, nil)
	if code != http.StatusTooManyRequests {
		t.Fatalf("drained tenant status %d, want 429: %s", code, raw)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var rej queryRejection
	if err := json.Unmarshal(raw, &rej); err != nil {
		t.Fatalf("invalid rejection JSON: %v\n%s", err, raw)
	}
	if rej.Reason != "tenant-quota" || rej.RetryAfterMS <= 0 {
		t.Fatalf("rejection %+v, want tenant-quota with retry hint", rej)
	}
	// An independent tenant is unaffected.
	code, _, raw = postQuery(t, ts, `{"tenant":"cold"}`, nil)
	if code != http.StatusOK {
		t.Fatalf("independent tenant status %d: %s", code, raw)
	}
}

func TestQueryBadRequests(t *testing.T) {
	_, ts := startServer(t)
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/query")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET status %d, want 405", resp.StatusCode)
		}
	})
	t.Run("body", func(t *testing.T) {
		code, _, _ := postQuery(t, ts, `{"nope`, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("truncated JSON status %d, want 400", code)
		}
	})
	t.Run("unknown field", func(t *testing.T) {
		code, _, _ := postQuery(t, ts, `{"qeury":"typo"}`, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("unknown field status %d, want 400", code)
		}
	})
	t.Run("bad query text", func(t *testing.T) {
		code, _, _ := postQuery(t, ts, `{"query":"DEFINE nonsense"}`, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("unparsable query status %d, want 400", code)
		}
	})
	t.Run("bad queued header", func(t *testing.T) {
		code, _, _ := postQuery(t, ts, `{}`, map[string]string{"X-Seco-Queued-Ns": "soon"})
		if code != http.StatusBadRequest {
			t.Fatalf("bad queued header status %d, want 400", code)
		}
	})
	// An inputs override that no predicate on it can compare is the
	// client's error, named in the answer, not a failed execution.
	travel, travelTS := startServerWith(t, Config{
		Scenario: "conftravel", Seed: 7, K: 5, Parallelism: 2, CacheCalls: true,
	})
	for _, tc := range []struct{ name, body, input string }{
		{"number for a string input", `{"inputs":{"INPUT1":"5"}}`, "INPUT1"},
		{"string for a number input", `{"inputs":{"INPUT3":"\"July\""}}`, "INPUT3"},
		{"NULL input", `{"inputs":{"INPUT1":"NULL"}}`, "INPUT1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, raw := postQuery(t, travelTS, tc.body, nil)
			if code != http.StatusBadRequest || !strings.Contains(string(raw), `"`+tc.input+`"`) {
				t.Fatalf("status %d (%s), want 400 naming %s", code, bytes.TrimSpace(raw), tc.input)
			}
			if n := travel.inst.http500.Value(); n != 0 {
				t.Fatalf("seco.serve.http_500 = %d, want 0", n)
			}
		})
	}
}

// TestConcurrentQueriesSharedEngineRace hammers /query from many
// goroutines. Every request for the same (query, K) pair executes on the
// single cached engine, so under -race this contends the whole serving
// stack at once: admission slots, the hedging layer, the share memo, the
// breaker state machine and the cumulative registry. Overload must
// surface as 200s (full or certified partial) and 429s — never a 500.
func TestConcurrentQueriesSharedEngineRace(t *testing.T) {
	clk := engine.NewVirtualClock()
	s, err := New(Config{
		Scenario: "movienight", Seed: 7, K: 10, Parallelism: 2, CacheCalls: true,
		Hedge: true, Clock: clk,
		Admission: admission.Config{Capacity: 4, TenantRate: 1000, TenantBurst: 1000,
			MaxDeadline: time.Hour},
		Wrap: func(alias string, svc service.Service) service.Service {
			inj := chaos.NewInjector(svc, clk, 7,
				chaos.TransientRate{P: 0.05},
				chaos.LatencySpike{Every: 7, Delay: 20 * time.Millisecond})
			return service.NewPolicy(inj, clk, 7)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var wg sync.WaitGroup
	codes := make([]int, 8*10)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				body := fmt.Sprintf(`{"tenant":"t%d","deadline_ms":60000}`, g%3)
				code, _, raw := postQuery(t, ts, body, nil)
				codes[g*10+i] = code
				if code != http.StatusOK && code != http.StatusTooManyRequests {
					t.Errorf("status %d: %s", code, raw)
				}
			}
		}(g)
	}
	wg.Wait()
	ok := 0
	for _, c := range codes {
		if c == http.StatusOK {
			ok++
		}
	}
	if ok == 0 {
		t.Fatal("no query succeeded; hammer is vacuous")
	}
}

func TestQueryDecisionsDeterministic(t *testing.T) {
	// Two fresh servers receiving the identical request sequence must
	// produce byte-identical response bodies: admission runs on the
	// virtual engine clock, and execution charges only simulated time.
	// Deadlines are generous so every admitted run completes, and full
	// runs and rejections are exactly reproducible.
	run := func() []string {
		s, err := New(Config{
			Scenario: "movienight", Seed: 7, K: 10, Parallelism: 2, CacheCalls: true,
			Admission: admission.Config{TenantRate: 2, TenantBurst: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var out []string
		for i := 0; i < 6; i++ {
			body := fmt.Sprintf(`{"tenant":"t%d","deadline_ms":9000}`, i%2)
			code, _, raw := postQuery(t, ts, body, nil)
			out = append(out, fmt.Sprintf("%d %s", code, raw))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("response %d diverged between identical replays:\n a: %s\n b: %s", i, a[i], b[i])
		}
	}
}
