package chaos

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateSweepGolden = flag.Bool("update-sweep-golden", false, "rewrite testdata/sweep_cells.golden")

const sweepGolden = "testdata/sweep_cells.golden"

// sweepCellLine renders one cell: its identity, what the run returned,
// its simulated elapsed time, and per alias every resilience counter,
// breaker trips and rejections included (E16's summary table shows
// neither).
func sweepCellLine(r Result) string {
	policy := "drain"
	if r.Streaming {
		policy = "pull"
	}
	reason := r.Reason
	if reason == "" {
		reason = "-"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s seed=%d %s returned=%d degraded=%s certified=%d elapsed=%v violations=%d",
		r.Scenario, r.Schedule, r.Seed, policy, r.Returned, reason, r.CertifiedK, r.Elapsed, len(r.Violations))
	aliases := make([]string, 0, len(r.Resilience))
	for a := range r.Resilience {
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	for _, a := range aliases {
		s := r.Resilience[a]
		fmt.Fprintf(&b, " | %s retries=%d giveups=%d trips=%d rejected=%d injected=%d permanent=%d spikes=%d",
			a, s.Retries, s.GiveUps, s.Tripped, s.Rejected, s.Injected, s.Permanent, s.Spikes)
	}
	return b.String()
}

// TestSweepCellsGolden pins every cell of the full sweep — E16's
// schedules over seeds 1–8 plus the overload family over seeds 1–4 —
// line for line against testdata/sweep_cells.golden.
// -update-sweep-golden rewrites it.
func TestSweepCellsGolden(t *testing.T) {
	scenarios, err := Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Sweep(context.Background(), scenarios, func(aliases []string) []Schedule {
		return append(DefaultSchedules(aliases, []int64{1, 2, 3, 4, 5, 6, 7, 8}),
			OverloadSchedules(aliases, []int64{1, 2, 3, 4})...)
	})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range sum.Results {
		b.WriteString(sweepCellLine(r))
		b.WriteByte('\n')
	}
	got := b.String()
	if *updateSweepGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-sweep-golden to create it)", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("sweep has %d cells, golden %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("cell %d moved:\n golden: %s\n    got: %s", i+1, wantLines[i], gotLines[i])
		}
	}
}
