package core

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"seco/internal/engine"
	"seco/internal/obs"
	"seco/internal/query"
)

// Regenerate with:
//
//	go test ./internal/core -run TestTriangleFidelityGolden -update-fidelity-golden
var updateFidelityGolden = flag.Bool("update-fidelity-golden", false, "rewrite triangle trace/fidelity golden files")

// tracedTriangleRun executes the optimized triangle plan (the n-ary
// multijoin topology) on the virtual clock with fidelity scoring and
// returns the run plus the trace snapshot. Parallelism is pinned to 1
// for the same reason as the movienight trace golden: within-lane span
// order must be deterministic.
func tracedTriangleRun(t *testing.T, materialize bool) (*engine.Run, *obs.Trace) {
	t.Helper()
	sys, inputs, err := Triangle(7)
	if err != nil {
		t.Fatal(err)
	}
	q, err := sys.Parse(query.TriangleExampleText)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Plan(q, PlanOptions{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	run, err := sys.Run(context.Background(), res, RunOptions{
		Inputs:      inputs,
		Parallelism: 1,
		Materialize: materialize,
		Trace:       tr,
		Fidelity:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return run, tr.Snapshot()
}

// fidelityEventCount counts the per-node "fidelity" instants in a
// trace.
func fidelityEventCount(tr *obs.Trace) int {
	n := 0
	for _, sp := range tr.Spans {
		if sp.Kind == obs.KindEvent && sp.Name == "fidelity" {
			n++
		}
	}
	return n
}

// TestTriangleFidelityGoldenDrain pins the full Chrome trace of the
// triangle's drain-mode execution — fidelity events included — and the
// textual fidelity report. Drain runs every operator to exhaustion, so
// no halt races a branch prefetch and every span's calls, tuples and
// emissions are fixed; what drain does not fix is how often a consumer
// probes Bound() on a shared node, which depends on which tee consumer
// marked it done first — so operator spans carry no probe count. With
// that, the virtual clock plus the sorted per-node fidelity events make
// both artifacts byte-deterministic (CI runs every golden 20 times), and
// the goldens double as a regression guard on the estimate/actual
// accounting itself — any change to candidate counting, q-error math
// or drift classification shows up as a diff here.
func TestTriangleFidelityGoldenDrain(t *testing.T) {
	run, first := tracedTriangleRun(t, true)
	if run.Fidelity == nil || len(run.Fidelity.Nodes) == 0 {
		t.Fatal("run carries no fidelity report")
	}
	_, second := tracedTriangleRun(t, true)

	var buf bytes.Buffer
	if err := first.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.Bytes()
	var again bytes.Buffer
	if err := second.WriteChrome(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again.Bytes()) {
		t.Fatalf("virtual-clock trace not byte-stable across two runs (%d vs %d bytes)",
			len(got), len(again.Bytes()))
	}
	if n := fidelityEventCount(first); n != len(run.Fidelity.Nodes) {
		t.Fatalf("%d fidelity events in trace, report has %d nodes", n, len(run.Fidelity.Nodes))
	}

	for name, data := range map[string][]byte{
		"trace_triangle_drain.golden":    got,
		"fidelity_triangle_drain.golden": []byte(run.Fidelity.Text()),
	} {
		golden := filepath.Join("testdata", name)
		if *updateFidelityGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("missing golden (run with -update-fidelity-golden): %v", err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s drifted (%d vs %d bytes); rerun with -update-fidelity-golden and review the diff",
				golden, len(data), len(want))
		}
	}
}

// TestTriangleFidelityPull covers the pull policy structurally instead
// of byte-for-byte: the early halt can land while a branch prefetch is
// in flight (the same scheduling sensitivity E15 notes for pull-mode
// call counts), so the exact span set may vary by one fetch per branch
// run over run. What must hold regardless: the report is present and
// self-consistent, every node's fidelity event is in the trace, the
// multijoin's candidate actuals undershoot the full-product estimate
// (the intersection prunes what the cross-product annotation budgets,
// and the pull driver stops at the top-k), and that benign overestimate
// does not drift.
func TestTriangleFidelityPull(t *testing.T) {
	run, tr := tracedTriangleRun(t, false)
	rep := run.Fidelity
	if rep == nil || len(rep.Nodes) == 0 {
		t.Fatal("run carries no fidelity report")
	}
	if n := fidelityEventCount(tr); n != len(rep.Nodes) {
		t.Fatalf("%d fidelity events in trace, report has %d nodes", n, len(rep.Nodes))
	}
	sawMulti := false
	for _, nf := range rep.Nodes {
		if nf.Q < 1 {
			t.Errorf("node %s: q %v < 1", nf.Node, nf.Q)
		}
		if nf.Kind != "multijoin" {
			continue
		}
		sawMulti = true
		if nf.ActCand >= nf.EstCand {
			t.Errorf("multijoin candidates act %v >= est %v under an early halt", nf.ActCand, nf.EstCand)
		}
		if nf.Drift {
			t.Errorf("multijoin overestimate flagged as drift: %+v", nf)
		}
	}
	if !sawMulti {
		t.Fatal("no multijoin row in the fidelity report")
	}
	if rep.Drifted != 0 {
		t.Errorf("uniform triangle drifted %d nodes, want 0:\n%s", rep.Drifted, rep.Text())
	}
}
