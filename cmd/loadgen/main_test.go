package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func smallConfig() sweepConfig {
	return sweepConfig{
		scenario: "movienight", seed: 7, k: 10, requests: 50,
		mults: []float64{0.5, 2}, deadlineMult: 3, chaos: true, hedge: true,
	}
}

func TestSweepInvariants(t *testing.T) {
	rep, err := sweep(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if problems := rep.check(); len(problems) > 0 {
		t.Fatalf("overload invariants violated:\n%s", strings.Join(problems, "\n"))
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points %d, want 2", len(rep.Points))
	}
	low, high := rep.Points[0], rep.Points[1]
	if low.Full == 0 {
		t.Error("no full answers below saturation")
	}
	if high.Degraded == 0 {
		t.Error("no shed (degraded) answers at 2x saturation — admission never engaged")
	}
	if low.Hedges == 0 {
		t.Error("no hedge attempts despite injected transients")
	}
	if low.HedgeWins == 0 {
		t.Error("no hedge wins despite single-shot transients")
	}
	if high.GoodputPS <= 0 {
		t.Error("zero goodput at 2x saturation")
	}
}

func TestLowLoadPointDeterministic(t *testing.T) {
	// Below saturation every admitted run completes its full call set, so
	// with no faults in play the whole point — latencies included — must
	// replay bit-identically.
	cfg := smallConfig()
	cfg.chaos = false
	svcTime, err := calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runPoint(cfg, svcTime, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(cfg, svcTime, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fault-free low-load point diverged between identical replays:\n a: %+v\n b: %+v", a, b)
	}
}

func TestChaoticPointAdmissionDeterministic(t *testing.T) {
	// With chaos on, the seq-keyed fault schedule decides which calls
	// fault. Requests are sent one after another, and on the virtual clock
	// the engine makes every call on demand, on the request's goroutine,
	// so which logical call draws which seq is fixed too. The whole point
	// replays: arrivals,
	// queued lags, bucket levels and the response ledger, and also the
	// Full/Degraded split and the hedge wins the faults decide
	// (TestCommittedSweepMatchesLOADGEN holds the whole chaotic sweep to
	// the same standard).
	cfg := smallConfig()
	svcTime, err := calibrate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := runPoint(cfg, svcTime, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runPoint(cfg, svcTime, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Degraded == 0 || a.HedgeWins == 0 {
		t.Fatalf("chaotic point degraded %d answers and won %d hedges; the replay must compare both", a.Degraded, a.HedgeWins)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("chaotic point diverged between identical replays:\n a: %+v\n b: %+v", a, b)
	}
}

func TestRunJSONAndAssert(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-requests", "40", "-mults", "0.5,2", "-json", "-assert"}, &buf)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, buf.String())
	}
	var rep report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, buf.String())
	}
	if rep.ServiceTimeMS <= 0 || len(rep.Points) != 2 {
		t.Fatalf("report incomplete: %+v", rep)
	}
}

func TestBadFlags(t *testing.T) {
	if err := run([]string{"-mults", "0.5,zero"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected error for malformed -mults")
	}
	if err := run([]string{"-no-such-flag"}, &bytes.Buffer{}); err == nil {
		t.Fatal("expected flag parse error")
	}
}
