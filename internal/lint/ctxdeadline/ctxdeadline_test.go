package ctxdeadline

import (
	"testing"

	"seco/internal/lint/linttest"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/deadbox")
}

// TestAnalyzerTraceLane runs the engine-side corpus: fresh contexts on an
// operator's Invoke/Fetch are flagged, request-derived ones, non-sink
// methods and context-less Invokes are not.
func TestAnalyzerTraceLane(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/tracebox")
}

func TestClean(t *testing.T) {
	linttest.RunClean(t, Analyzer, "testdata/src/deadclean")
}

func TestScope(t *testing.T) {
	for path, want := range map[string]bool{
		"seco/cmd/secoserve":    true,
		"seco/internal/serve":   true,
		"seco/internal/service": false,
		"seco/cmd/loadgen":      false,
	} {
		if got := Analyzer.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}

// TestScopeEngine pins the engine half of the scope: operators are
// checked, the service layer below them is not.
func TestScopeEngine(t *testing.T) {
	for path, want := range map[string]bool{
		"seco/internal/engine":  true,
		"seco/internal/service": false,
	} {
		if got := Analyzer.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}
