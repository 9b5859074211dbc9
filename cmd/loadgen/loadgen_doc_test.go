package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// committedSweep returns the fenced block under LOADGEN.md's "## The
// sweep" heading.
func committedSweep(t *testing.T) string {
	t.Helper()
	doc, err := os.ReadFile("../../LOADGEN.md")
	if err != nil {
		t.Fatal(err)
	}
	var block []string
	inSec, fenced := false, false
	for _, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			inSec = strings.HasPrefix(line, "## The sweep")
		case inSec && strings.HasPrefix(line, "```"):
			if fenced {
				return strings.Join(block, "\n") + "\n"
			}
			fenced = true
		case inSec && fenced:
			block = append(block, line)
		}
	}
	t.Fatal(`no fenced block under "## The sweep" in LOADGEN.md`)
	return ""
}

// TestCommittedSweepMatchesLOADGEN reruns the sweep LOADGEN.md quotes
// (seed 7, 150 requests per point, -assert) and requires its output to
// be the committed table byte for byte: the hedges column covers the
// hedged-call failure path, p50/p99 the latency spikes the injectors
// charge to the engine clock.
func TestCommittedSweepMatchesLOADGEN(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-seed", "7", "-requests", "150", "-assert"}, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if want := committedSweep(t); out.String() != want {
		t.Errorf("loadgen output differs from LOADGEN.md:\n got:\n%s\nwant:\n%s", out.String(), want)
	}
}
