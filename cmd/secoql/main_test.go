package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunMovienightDefault(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-k", "3", "-explain"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, frag := range []string{"topology:", "plan (K=3)", "score="} {
		if !strings.Contains(s, frag) {
			t.Errorf("output missing %q:\n%s", frag, s)
		}
	}
}

func TestRunConftravelNoExec(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-scenario", "conftravel", "-no-exec", "-metric", "execution-time"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "topology:") {
		t.Errorf("no-exec output: %q", out.String())
	}
	if strings.Contains(out.String(), "score=") {
		t.Error("no-exec still executed")
	}
}

func TestRunDOTOutput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-dot"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "digraph plan") {
		t.Errorf("DOT output: %q", out.String()[:40])
	}
}

func TestRunQueryFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.sql")
	src := `select Movie1 as M
where M.Genres.Genre = INPUT1 and M.Openings.Country = INPUT2 and
M.Openings.Date > INPUT3 and M.Language = INPUT7
rank 1 M`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{"-query", path, "-k", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "score=") {
		t.Errorf("query-file output: %q", out.String())
	}
}

func TestRunInputOverride(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-k", "2", "-input", "INPUT1=Drama"}, &out)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunInfeasibleQuerySuggestsAugmentations(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "q.sql")
	src := `select Restaurant1 as R where R.Categories.Name = INPUT1`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-query", path}, &out)
	if err == nil {
		t.Fatal("infeasible query succeeded")
	}
	if !strings.Contains(err.Error(), "augmentation:") {
		t.Errorf("error lacks augmentation hints: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-scenario", "nope"},
		{"-topology", "nope"},
		{"-metric", "nope"},
		{"-query", "/does/not/exist.sql"},
		{"-input", "broken"},
	}
	for _, args := range cases {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunMoreBatches(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-k", "2", "-more", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "more results (batch 2)") &&
		!strings.Contains(out.String(), "(no further results)") {
		t.Errorf("more-batches output lacks second batch marker:\n%s", out.String())
	}
}
