package main

import (
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"seco/internal/lint"
)

// TestRepoIsClean is the enforcement point: the whole module must pass
// every analyzer. A failure here names the offending line directly.
func TestRepoIsClean(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"seco/..."}, &out, &errw); code != 0 {
		t.Fatalf("secolint found violations (exit %d):\n%s%s", code, out.String(), errw.String())
	}
}

func TestListDescribesEveryAnalyzer(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-list"}, &out, &errw); code != 0 {
		t.Fatalf("-list exited %d: %s", code, errw.String())
	}
	for _, name := range []string{"wallclock", "detrange", "ctxdeadline"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing %s:\n%s", name, out.String())
		}
	}
}

// TestJSONOutput locks the machine-readable shape: a clean run is the
// empty array, so consumers range without a nil check.
func TestJSONOutput(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-json", "seco/internal/plan"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errw.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("clean -json run printed %q, want []", got)
	}

	var diags []lint.Diagnostic
	diags = append(diags, lint.Diagnostic{
		Pos:      token.Position{Filename: "a.go", Line: 3, Column: 7},
		Analyzer: "wallclock",
		Message:  `time.Now reads the wall clock; use the engine Clock`,
	})
	var buf strings.Builder
	if err := writeJSON(&buf, diags); err != nil {
		t.Fatal(err)
	}
	var decoded []jsonDiagnostic
	if err := json.Unmarshal([]byte(buf.String()), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	want := jsonDiagnostic{File: "a.go", Line: 3, Col: 7, Analyzer: "wallclock", Message: `time.Now reads the wall clock; use the engine Clock`}
	if len(decoded) != 1 || decoded[0] != want {
		t.Errorf("round-trip got %+v, want %+v", decoded, want)
	}
}

func TestOnlySelectsSubset(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-only", "wallclock,ctxdeadline", "seco/internal/engine"}, &out, &errw); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, out.String(), errw.String())
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"-only", "nope", "seco/internal/engine"}, &out, &errw); code != 2 {
		t.Fatalf("unknown analyzer: exit %d, want 2", code)
	}
	if !strings.Contains(errw.String(), "unknown analyzer") {
		t.Errorf("missing error message: %s", errw.String())
	}
}

func TestBadPatternExitsTwo(t *testing.T) {
	var out, errw strings.Builder
	if code := run([]string{"seco/does/not/exist"}, &out, &errw); code != 2 {
		t.Fatalf("bad pattern: exit %d, want 2", code)
	}
}
