package poolpair

import (
	"testing"

	"seco/internal/lint/linttest"
)

func TestAnalyzer(t *testing.T) {
	linttest.Run(t, Analyzer, "testdata/src/poolbox")
}

func TestClean(t *testing.T) {
	linttest.RunClean(t, Analyzer, "testdata/src/poolclean")
}

func TestScope(t *testing.T) {
	for path, want := range map[string]bool{
		"seco/internal/engine":  true,
		"seco/internal/service": false,
		"seco/internal/types":   false,
		"seco/internal/obs":     false,
	} {
		if got := Analyzer.AppliesTo(path); got != want {
			t.Errorf("AppliesTo(%q) = %v, want %v", path, got, want)
		}
	}
}
