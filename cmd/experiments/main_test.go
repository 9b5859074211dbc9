package main

import (
	"strings"
	"testing"
)

// Each experiment must run cleanly and emit its table.
func TestEachExperimentRuns(t *testing.T) {
	for _, e := range experimentsList() {
		if e.ID == "E12" && testing.Short() {
			continue // E12 includes a live-latency wall-clock run
		}
		t.Run(e.ID, func(t *testing.T) {
			var out strings.Builder
			if err := run(e.ID, &out); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), e.ID+" — ") {
				t.Errorf("output missing header:\n%s", out.String())
			}
			if len(out.String()) < 100 {
				t.Errorf("suspiciously short output:\n%s", out.String())
			}
		})
	}
}

// The E2 table must report the Fig. 10 numbers verbatim.
func TestE2TableMatchesPaper(t *testing.T) {
	var out strings.Builder
	if err := run("E2", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"1250", "100.00", "25.00", "10.00", "req[R]=10 req[MS]=25"} {
		if !strings.Contains(s, frag) {
			t.Errorf("E2 output missing %q:\n%s", frag, s)
		}
	}
}

// The E13 table must report the published guaranteed-vs-approximate
// figures row for row: k, exact fetches, approximate fetches, recall.
func TestE13TableMatchesPublished(t *testing.T) {
	var out strings.Builder
	if err := run("E13", &out); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(out.String(), "\n") {
		rows[strings.Join(strings.Fields(line), " ")] = true
	}
	for _, want := range []string{"5 4 3 0.60", "10 4 3 0.80", "20 6 5 0.95", "40 8 7 0.88"} {
		if !rows[want] {
			t.Errorf("E13 output missing row %q:\n%s", want, out.String())
		}
	}
}

// The E3 listing must contain all four Fig. 9 topologies.
func TestE3ListsFourTopologies(t *testing.T) {
	var out strings.Builder
	if err := run("E3", &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, topo := range []string{"M → T → R", "T → M → R", "T → R → M", "(M‖T) → R"} {
		if !strings.Contains(s, topo) {
			t.Errorf("E3 missing topology %q", topo)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := &table{header: []string{"a", "long-header"}}
	tb.add("x", "1")
	tb.add("yyyy", "2")
	var out strings.Builder
	tb.write(&out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[1], "----") {
		t.Errorf("separator missing: %q", lines[1])
	}
}
