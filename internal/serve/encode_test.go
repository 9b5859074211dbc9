package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"seco/internal/admission"
	"seco/internal/engine"
	"seco/internal/types"
)

// FuzzAppendJSONString: for arbitrary bytes, appendJSONString writes what
// json.Marshal writes for the same string, whether it is handed the bytes
// or a string.
func FuzzAppendJSONString(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		want, err := json.Marshal(string(b))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONString([]byte("x"), b); !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONString(%q) = %s, json.Marshal = %s", b, got[1:], want)
		}
		if got := appendJSONString(nil, string(b)); !bytes.Equal(got, want) {
			t.Fatalf("appendJSONString(string %q) = %s, json.Marshal = %s", b, got, want)
		}
	})
}

// FuzzAppendJSONFloat: for every float64, appendJSONFloat writes what
// json.Marshal writes, and refuses NaN and ±Inf with its error.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1e-6, 9.999999999999999e20, -1.5e-300,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(-1)} {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v float64) {
		want, wantErr := json.Marshal(v)
		got, err := appendJSONFloat([]byte("x"), v)
		if wantErr != nil {
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendJSONFloat(%v) error %v, json.Marshal's %v", v, err, wantErr)
			}
			return
		}
		if err != nil || !bytes.Equal(got[1:], want) || got[0] != 'x' {
			t.Fatalf("appendJSONFloat(%v) = %s, %v; json.Marshal = %s", v, got[1:], err, want)
		}
	})
}

// referenceBody is how the handler encoded a success payload before it
// appended into a pooled buffer: each combination rendered to a string,
// then the whole response through encoding/json. It is kept as the
// reference the pooled encoding must match byte for byte.
func referenceBody(resp queryResponse, combos []*types.Combination) ([]byte, error) {
	resp.Combinations = make([]queryCombination, 0, len(combos))
	for _, c := range combos {
		resp.Combinations = append(resp.Combinations, queryCombination{
			Score: c.Score, Combo: c.String(),
		})
	}
	var b bytes.Buffer
	err := json.NewEncoder(&b).Encode(resp)
	return b.Bytes(), err
}

// openConfig is a scenario server with admission opened wide, as
// secobench opens it, so no request is shed or degraded.
func openConfig(scenario string) Config {
	return Config{
		Scenario: scenario, Seed: 7, K: 10, Parallelism: 4, CacheCalls: true, Hedge: true,
		Admission: admission.Config{TenantRate: 1e9, MaxDeadline: time.Hour},
	}
}

// serveQuery sends one POST /query straight to handler h.
func serveQuery(h http.Handler, body, tenant string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Seco-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestQueryResponseMatchesEncodingJSON: the handler's body is byte for
// byte what referenceBody writes for the same run, on every scenario,
// K and input set. The header fields come from decoding the body (floats
// and strings round-trip exactly), the tenant from the request, and the
// combinations from a second run of the cached plan on the same inputs.
func TestQueryResponseMatchesEncodingJSON(t *testing.T) {
	overrides := map[string]map[string]string{
		"movienight": {"INPUT1": `"Thriller"`},
		"conftravel": {"INPUT1": `"ai"`},
		"triangle":   {"INPUT1": `"x<&> \"\\"`},
	}
	for _, scenario := range []string{"movienight", "conftravel", "triangle"} {
		s, err := New(openConfig(scenario))
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		for _, k := range []int{1, 3, 5, 10, 50} {
			for _, set := range []struct {
				tenant string
				inputs map[string]string
			}{
				{"", nil},
				// A header tenant reaches the echo unchanged: HTML
				// specials, a line separator and a raw non-UTF-8 byte.
				{"x<&> \"\\\u2028\xe5", overrides[scenario]},
			} {
				req, err := json.Marshal(queryRequest{K: k, DeadlineMS: 3.6e6, Inputs: set.inputs})
				if err != nil {
					t.Fatal(err)
				}
				rec := serveQuery(h, string(req), set.tenant)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s K=%d inputs %v: status %d: %s", scenario, k, set.inputs, rec.Code, rec.Body)
				}
				var resp queryResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				if resp.Degraded != nil {
					t.Fatalf("%s K=%d: degraded (%s); the reference needs complete runs", scenario, k, resp.Degraded.Reason)
				}
				resp.Tenant = set.tenant
				inputs := make(map[string]types.Value, len(s.inputs))
				for name, v := range s.inputs {
					inputs[name] = v
				}
				for name, lit := range set.inputs {
					inputs[name] = types.ParseValue(lit)
				}
				entry, err := s.entryFor(s.defaultText, k)
				if err != nil {
					t.Fatal(err)
				}
				run, err := entry.prep.Run(context.Background(), engine.RunOptions{Inputs: inputs})
				if err != nil {
					t.Fatal(err)
				}
				want, err := referenceBody(resp, run.Combinations)
				if err != nil {
					t.Fatal(err)
				}
				if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
					t.Errorf("%s K=%d inputs %v: body\n%s\nencoding/json\n%s", scenario, k, set.inputs, got, want)
				}
			}
		}
	}
}

// TestAppendResponseMatchesEncodingJSON covers what the served worlds do
// not reach: a degraded report, awkward names and values in the
// combinations, an empty list, and the non-finite scores encoding/json
// refuses with the error the handler answers 500 with.
func TestAppendResponseMatchesEncodingJSON(t *testing.T) {
	tu := types.NewTuple(0.5)
	tu.Set("Name<&>", types.String("a \"b\" \\ \u2028 \xe5")).Set("N", types.Float(1e-9))
	tu.AddGroup("G\u2029", types.SubTuple{"x\x01": types.String("</script>")})
	combos := []*types.Combination{
		types.NewCombination("A", tu),
		{Components: map[string]*types.Tuple{"B\xff": tu, "C": nil}, Score: 1e21},
	}
	combos[0].Score = 0.1 + 0.2
	bound := 0.25
	resp := queryResponse{
		Tenant: "t", Tier: "degrade", Reason: "occupancy", BudgetMS: 1e-7, ElapsedMS: 123456.5,
		Halted: true, CertifiedK: 1,
		Degraded: &queryDegradation{Reason: "shed", Failed: []string{"A<"}, Cause: "x&y", Bound: &bound, CertifiedK: 1},
	}
	buf := getRespBuf()
	defer buf.put()
	for _, tc := range []struct {
		name   string
		resp   queryResponse
		combos []*types.Combination
	}{
		{"degraded", resp, combos},
		{"empty", queryResponse{Tier: "admit"}, nil},
	} {
		got, err := buf.appendResponse(&tc.resp, tc.combos)
		if err != nil {
			t.Fatal(err)
		}
		want, err := referenceBody(tc.resp, tc.combos)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: appendResponse\n%s\nencoding/json\n%s", tc.name, got, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		combos[1].Score = bad
		_, err := buf.appendResponse(&resp, combos)
		_, wantErr := referenceBody(resp, combos)
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Errorf("score %v: error %v, encoding/json's %v", bad, err, wantErr)
		}
	}
}

// TestQueryHandlerAllocBytes pins what writing results straight into a
// pooled buffer, and decoding bodies by hand into pooled scratch, save:
// steady-state /query requests (Share and Hedge on, plan cached, memo
// warm) through the whole handler must stay under a bytes-per-request
// ceiling. conftravel's body names K alone; movienight's is secobench's
// movienight-hot body: the running example's text, K, a deadline and
// four inputs.
func TestQueryHandlerAllocBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	for _, tc := range []struct {
		scenario, body string
		// ceiling is ~1.2x the KB per request measured with Go 1.24.
		// conftravel measured 31.1 KB rendering into a pooled buffer
		// (44.6 KB through encoding/json), then 23.1 KB once a cached
		// plan reused its operator graph, and 22.3 KB decoding by hand.
		// movienight measured 14.4 KB through encoding/json's decoder
		// and a fresh inputs map per request, and 10.5 KB decoding by
		// hand, which the ceiling fails the old path at.
		ceiling float64
	}{
		{"conftravel", `{"k":10,"deadline_ms":60000}`, 27},
		{"movienight", movieBody("Comedy", "English", "Italy", "Pizzeria"), 12.5},
	} {
		t.Run(tc.scenario, func(t *testing.T) {
			s, err := New(openConfig(tc.scenario))
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			serve := func() {
				if rec := serveQuery(h, tc.body, ""); rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body)
				}
			}
			serve() // plan, warm the memo
			runtime.GC()
			serve() // refill the pools the collection emptied
			const requests = 50
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < requests; i++ {
				serve()
			}
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / requests / 1024
			if kb > tc.ceiling {
				t.Errorf("steady-state %s /query allocates %.1f KB per request, ceiling %.1f KB", tc.scenario, kb, tc.ceiling)
			}
			t.Logf("steady-state %s /query (%d-byte body): %.1f KB per request", tc.scenario, len(tc.body), kb)
		})
	}
}
