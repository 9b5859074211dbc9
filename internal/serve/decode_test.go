package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"seco/internal/query"
)

// queryRequest is the POST /query body as encoding/json decodes it. The
// handler decoded every body this way before decode.go; referenceDecode
// keeps that decoding as the reference the hand decoder must match.
type queryRequest struct {
	Query      string            `json:"query,omitempty"`
	K          int               `json:"k,omitempty"`
	DeadlineMS float64           `json:"deadline_ms,omitempty"`
	Tenant     string            `json:"tenant,omitempty"`
	Inputs     map[string]string `json:"inputs,omitempty"`
}

func referenceDecode(body []byte) (queryRequest, error) {
	var req queryRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	return req, err
}

// handDecode reads body as the handler does, through a pooled scratch,
// and returns what it decoded as a queryRequest.
func handDecode(body []byte) (queryRequest, error) {
	sc := getQueryScratch()
	defer sc.put()
	r := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body))
	if err := sc.read(httptest.NewRecorder(), r); err != nil {
		return queryRequest{}, err
	}
	req := queryRequest{Query: string(sc.req.query), K: sc.req.k, DeadlineMS: sc.req.deadlineMS, Tenant: string(sc.req.tenant)}
	for _, p := range sc.req.inputs {
		if req.Inputs == nil {
			req.Inputs = map[string]string{}
		}
		req.Inputs[string(p.name)] = string(p.lit)
	}
	return req, nil
}

// sameRequest compares two decodings, counting nil and empty inputs as
// equal and deadlines bit for bit.
func sameRequest(a, b queryRequest) bool {
	if a.Query != b.Query || a.K != b.K || a.Tenant != b.Tenant ||
		math.Float64bits(a.DeadlineMS) != math.Float64bits(b.DeadlineMS) || len(a.Inputs) != len(b.Inputs) {
		return false
	}
	for name, lit := range a.Inputs {
		if other, ok := b.Inputs[name]; !ok || other != lit {
			return false
		}
	}
	return true
}

// benchRequest is the body shape secobench posts.
type benchRequest struct {
	Query      string            `json:"query"`
	K          int               `json:"k"`
	DeadlineMS float64           `json:"deadline_ms"`
	Inputs     map[string]string `json:"inputs,omitempty"`
}

func benchBody(text string, k int, inputs map[string]string) string {
	body, err := json.Marshal(benchRequest{Query: text, K: k, DeadlineMS: 3600000, Inputs: inputs})
	if err != nil {
		panic(err)
	}
	return string(body)
}

// movieBody is a movienight-hot body: the running example at K=10 under
// one genre × language × country × category binding.
func movieBody(genre, lang, country, category string) string {
	return benchBody(query.RunningExampleText, 10, map[string]string{
		"INPUT1": `"` + genre + `"`, "INPUT7": `"` + lang + `"`,
		"INPUT2": `"` + country + `"`, "INPUT6": `"` + category + `"`,
	})
}

// queryBodySeeds are the bodies FuzzQueryBody starts from: one of each
// secobench workload, the bodies of TestQueryBadRequests, and one per
// way a decoder can part from encoding/json.
func queryBodySeeds() []string {
	return []string{
		// secobench: movienight-hot, conftravel-deep and -shared, and
		// triangle-churn's canonical body and a cold variant.
		movieBody("Comedy", "English", "Italy", "Pizzeria"),
		benchBody(query.TravelExampleText, 5, nil),
		benchBody(query.TriangleExampleText, 10, nil),
		benchBody(strings.Replace(query.TriangleExampleText, "\nrank", " and A.Draw > -17\nrank", 1), 10, nil),
		// TestQueryBadRequests.
		`{"nope`, `{"qeury":"typo"}`, `{"query":"DEFINE nonsense"}`, `{}`,
		`{"inputs":{"INPUT1":"5"}}`, `{"inputs":{"INPUT3":"\"July\""}}`, `{"inputs":{"INPUT1":"NULL"}}`,
		// Only the first value is read; a top-level null sets nothing.
		`{"k":3} trailing garbage`, `{}{"k":`, `null`, `nullx`, " \t\r\n null", `nul`, ``, ` `,
		`[]`, `"tenant"`, `123`, `true`,
		// Keys fold under Unicode simple folding.
		`{"K":3}`, `{"\u212a":3}`, "{\"\xe2\x84\xaa\":3}", `{"input\u017f":{"a":"\"b\""}}`, "{\"input\xc5\xbf\":{}}",
		`{"QUERY":"x","Tenant":"t","DEADLINE_MS":5}`, `{"kk":1}`, `{"":1}`, `{"k\u0000":1}`,
		// Repeated keys: the last scalar wins, inputs objects merge, null
		// resets inputs and leaves scalars; a null input binds "".
		`{"k":1,"k":2}`, `{"k":5,"k":null}`, `{"query":"x","query":null}`, `{"tenant":"a","TENANT":"b"}`,
		`{"inputs":{"a":"1"},"inputs":{"b":"2","a":"3"}}`, `{"inputs":{"a":"1"},"inputs":null}`,
		`{"inputs":null,"inputs":{"b":"2"}}`, `{"inputs":{"a":null}}`, `{"inputs":{"a":"1","a":"2"}}`,
		// k is an integer literal within int; deadline_ms a finite float64.
		`{"k":1.0}`, `{"k":1e2}`, `{"k":"10"}`, `{"k":-0}`, `{"k":-7}`, `{"k":01}`, `{"k":9223372036854775807}`,
		`{"k":9223372036854775808}`, `{"k":true}`, `{"deadline_ms":1e400}`, `{"deadline_ms":1e-400}`,
		`{"deadline_ms":-0.0}`, `{"deadline_ms":1.5E+3}`, `{"deadline_ms":1.}`, `{"deadline_ms":.5}`,
		`{"deadline_ms":-}`, `{"deadline_ms":"5"}`, `{"deadline_ms":2e}`,
		// Strings: escapes, surrogates, control bytes and invalid UTF-8.
		`{"tenant":"a\"\\\/\b\f\n\r\té😀"}`, `{"tenant":"\ud800"}`, `{"tenant":"\ud800A"}`,
		`{"tenant":"\udc00\ud800"}`, `{"tenant":"\ud800𐀀"}`, `{"tenant":"\ud800\uZZZZ"}`,
		"{\"tenant\":\"a\x01b\"}", "{\"tenant\":\"\xff\xfe\"}", "{\"tenant\":\"\xed\xa0\x80\"}",
		`{"tenant":"\x"}`, `{"tenant":"\'"}`, `{"tenant":"\u12"}`, `{"tenant":"\u0000"}`, "{\"tenant\":\"\x7f\"}",
		// Object syntax.
		`{"k":1,}`, `{,}`, `{"k" 1}`, `{"k":1 "tenant":"t"}`, `{"k":nullx}`, `{"inputs":{"a":1}}`,
		`{"inputs":["a"]}`, `{"inputs":{"a":"b",}}`, `{"query":{"x":1}}`, `{"tenant":["x"]}`,
	}
}

// FuzzQueryBody: on every body up to maxBodyBytes, the hand decoder and
// encoding/json agree on accept or reject and, on accept, on every
// field. Through Handler(), no body is answered with a 500, and every
// body the reference refuses is answered with a 400.
func FuzzQueryBody(f *testing.F) {
	for _, body := range queryBodySeeds() {
		f.Add([]byte(body))
	}
	s, err := New(openConfig("movienight"))
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > maxBodyBytes {
			return
		}
		want, wantErr := referenceDecode(body)
		got, err := handDecode(body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: hand decoder error %v, encoding/json error %v", body, err, wantErr)
		}
		if err == nil && !sameRequest(got, want) {
			t.Fatalf("%q: hand decoder %+v, encoding/json %+v", body, got, want)
		}
		rec := serveQuery(h, string(body), "")
		if rec.Code == http.StatusInternalServerError {
			t.Fatalf("%q: status 500: %s", body, rec.Body)
		}
		if wantErr != nil && len(body) > 0 && rec.Code != http.StatusBadRequest {
			t.Fatalf("%q: encoding/json refuses it (%v), the handler answers %d", body, wantErr, rec.Code)
		}
	})
}

// TestConcurrentQueriesBindTheirOwnInputs: requests that run at once on
// one cached plan, each with its own inputs bound through pooled scratch
// (or none, falling back to the scenario's), each get the answer their
// own body gets when served alone.
func TestConcurrentQueriesBindTheirOwnInputs(t *testing.T) {
	s, err := New(openConfig("movienight"))
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	bodies := []string{
		movieBody("Comedy", "English", "Italy", "Pizzeria"),
		movieBody("Comedy", "Italian", "Italy", "Pizzeria"),
		movieBody("Thriller", "English", "Italy", "Pizzeria"),
		movieBody("Thriller", "Italian", "Italy", "Pizzeria"),
		movieBody("Thriller", "Italian", "Italy", "Sushi"),
		movieBody("Romance", "Italian", "Italy", "Pizzeria"),
		movieBody("Drama", "Italian", "France", "Sushi"), // no answer
		// No overrides: the scenario's bindings.
		`{"k":10,"deadline_ms":3600000}`,
		`{"k":10,"deadline_ms":3600000,"inputs":{}}`,
		// Overrides of some inputs, one of them twice.
		`{"k":10,"deadline_ms":3600000,"inputs":{"INPUT7":"\"Italian\"","INPUT6":"\"Sushi\""}}`,
		`{"k":10,"deadline_ms":3600000,"inputs":{"INPUT1":"\"Comedy\""},"inputs":{"INPUT1":"\"Drama\""}}`,
	}
	answer := func(body string) (string, error) {
		rec := serveQuery(h, body, "")
		if rec.Code != http.StatusOK {
			return "", fmt.Errorf("status %d: %s", rec.Code, rec.Body)
		}
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			return "", err
		}
		if resp.Degraded != nil {
			return "", fmt.Errorf("degraded: %s", resp.Degraded.Reason)
		}
		return fmt.Sprint(resp.CertifiedK, resp.Combinations), nil
	}
	serial := make([]string, len(bodies))
	distinct := map[string]bool{}
	for i, body := range bodies {
		if serial[i], err = answer(body); err != nil {
			t.Fatal(err)
		}
		distinct[serial[i]] = true
	}
	if len(distinct) < 7 {
		t.Fatalf("only %d distinct answers over %d bindings; the test cannot see crosstalk", len(distinct), len(bodies))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range 4 * len(bodies) {
				c := (g + i*(g+1)) % len(bodies)
				got, err := answer(bodies[c])
				if err != nil {
					t.Errorf("body %d: %v", c, err)
					return
				}
				if got != serial[c] {
					t.Errorf("body %d answered concurrently:\n%s\nserved alone:\n%s", c, got, serial[c])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkQueryBodyDecode decodes the 497-byte movienight-hot body by
// hand, into reused scratch as the handler does, and through
// encoding/json, as the handler once did.
func BenchmarkQueryBodyDecode(b *testing.B) {
	body := []byte(movieBody("Comedy", "English", "Italy", "Pizzeria"))
	b.Run("hand", func(b *testing.B) {
		b.ReportAllocs()
		var req wireRequest
		var str []byte
		for range b.N {
			d := decoder{data: body, str: str[:0]}
			req = wireRequest{inputs: req.inputs[:0]}
			if err := d.request(&req); err != nil {
				b.Fatal(err)
			}
			str = d.str
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			if _, err := referenceDecode(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
