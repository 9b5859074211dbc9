package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultLine is the last line a pass prints: the object the driver reads.
type resultLine struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runPass runs the command as the driver does and decodes its last line.
func runPass(t *testing.T, args ...string) (resultLine, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("%v: %v\n%s", args, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res resultLine
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%v: last line is not the result object: %v\n%s", args, err, out.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct=%v, %d failed of %d\n%s", args, res.Correct, res.Failed, res.Attempted, out.String())
	}
	return res, out.String()
}

// Every workload answers every request correctly, and a pass reports
// exactly its metric set, under the names and units BENCHMARK.json gives.
func TestSmokeEndToEnd(t *testing.T) {
	for _, w := range workloads() {
		res, out := runPass(t, "--workload", w.name, "--seed", "3", "--seconds", "1", "--trace", "0")
		if len(res.Metrics) != len(endToEndMetrics) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(endToEndMetrics))
		}
		for _, d := range endToEndMetrics {
			m, ok := res.Metrics[d.name]
			if !ok || m.Unit != d.unit || !(m.Value > 0) {
				t.Errorf("%s: metric %s = %+v (present %v), want a positive value in %s", w.name, d.name, m, ok, d.unit)
			}
			if !strings.Contains(out, w.name+" "+d.name+" ") {
				t.Errorf("%s: no line for %s", w.name, d.name)
			}
		}
		if !strings.Contains(out, w.name+" failed_share 0 ratio") {
			t.Errorf("%s: failed_share line missing or non-zero:\n%s", w.name, out)
		}
	}
}

// The traced pass confirms each workload exercises the layers it was
// built for and bypasses the ones it was built to bypass.
func TestSmokePerLayer(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.json")
	for _, w := range workloads() {
		res, _ := runPass(t, "--workload", w.name, "--seed", "3", "--seconds", "2", "--trace", "1", "-spans", spans)
		if len(res.Metrics) != len(perLayerMetrics) {
			t.Errorf("%s: %d metrics, want %d", w.name, len(res.Metrics), len(perLayerMetrics))
		}
		get := func(name string) float64 {
			m, ok := res.Metrics[name]
			if !ok {
				t.Fatalf("%s: metric %s missing", w.name, name)
			}
			return m.Value
		}
		for _, d := range perLayerMetrics {
			if m := res.Metrics[d.name]; m.Unit != d.unit {
				t.Errorf("%s: %s has unit %q, want %q", w.name, d.name, m.Unit, d.unit)
			}
		}
		wire, hit := get("service.wire_calls_per_req"), get("serve.plan_cache_hit_ratio")
		switch w.name {
		case "conftravel-deep":
			if wire < 100 || get("service.share_hit_ratio") != 0 {
				t.Errorf("%s: %v wire calls per request, share hit ratio %v", w.name, wire, get("service.share_hit_ratio"))
			}
		case "movienight-hot", "conftravel-shared":
			if wire > 0.5 || get("service.share_hit_ratio") < 0.99 {
				t.Errorf("%s: %v wire calls per request, share hit ratio %v", w.name, wire, get("service.share_hit_ratio"))
			}
		}
		if w.name == "triangle-churn" {
			if hit < 0.8 || hit > 0.9 || get("optimizer.plan_share") < 0.2 {
				t.Errorf("%s: plan-cache hit ratio %v, plan share %v", w.name, hit, get("optimizer.plan_share"))
			}
		} else if hit != 1 || get("optimizer.plan_share") != 0 {
			t.Errorf("%s: plan-cache hit ratio %v, plan share %v", w.name, hit, get("optimizer.plan_share"))
		}
		if get("admission.degraded_share") != 0 || get("admission.rejected_share") != 0 {
			t.Errorf("%s: admission shed requests", w.name)
		}
		if get("engine.calls") <= 0 || get("engine.execute_us_p50") <= 0 || get("serve.handler_us_p50") <= 0 {
			t.Errorf("%s: a layer reported no work: %+v", w.name, res.Metrics)
		}

		raw, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		var dumped []spanRecord
		if err := json.Unmarshal(raw, &dumped); err != nil {
			t.Fatalf("%s: span dump: %v", w.name, err)
		}
		names := map[string]int{}
		for _, s := range dumped {
			names[s.Name]++
			if s.End < s.Start || s.ID == 0 || s.Req == 0 {
				t.Fatalf("%s: malformed span %+v", w.name, s)
			}
		}
		if names[kindNames[kindClient]] == 0 || names[kindNames[kindHandler]] == 0 || names[kindNames[kindReplayExecute]] == 0 {
			t.Errorf("%s: span dump holds %v", w.name, names)
		}
	}
}

func TestBadFlagsAreRefused(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"}, {"-trace", "2"}, {"-seconds", "0"}, {"-spans", "x.json"}, {"stray"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
}

// BENCHMARK.json is what the driver reads; the tables in main.go,
// layers.go and workload.go are what the program reports. They must say
// the same thing.
func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(doc.Workloads) != len(ws) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(doc.Workloads), len(ws))
	}
	for i, w := range ws {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, over 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v in BENCHMARK.json, %v in the program", kind, d.name, g.Bound, d.bound)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics, true)
	check("per_layer", doc.PerLayer, perLayerMetrics, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 || len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", doc.RunSeconds, doc.Paths)
	}
}
