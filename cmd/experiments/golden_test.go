package main

import (
	"bufio"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var updateExperimentsGolden = flag.Bool("update", false, "rewrite testdata/experiments.golden")

const experimentsGolden = "testdata/experiments.golden"

// sectionHeader opens one experiment's output, as in schedule-check.sh.
var sectionHeader = regexp.MustCompile(`^## E[0-9]+ `)

// schedulePattern is one entry of EXPERIMENTS.md's "Schedule-dependent
// outputs" list: a line of experiment id may differ between runs when
// both versions match re.
type schedulePattern struct {
	id string
	re *regexp.Regexp
}

// schedulePatterns reads the fenced block under "## Schedule-dependent
// outputs" the way .github/schedule-check.sh does: one "<experiment ID>
// <extended regex>" per non-empty line.
func schedulePatterns(t *testing.T) []schedulePattern {
	t.Helper()
	f, err := os.Open("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []schedulePattern
	inSec, fenced := false, false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "## "):
			inSec = line == "## Schedule-dependent outputs"
		case inSec && strings.HasPrefix(line, "```"):
			fenced = !fenced
		case inSec && fenced && strings.TrimSpace(line) != "":
			id, expr, _ := strings.Cut(line, " ")
			out = append(out, schedulePattern{id: id, re: regexp.MustCompile(expr)})
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal(`no patterns under "Schedule-dependent outputs" in EXPERIMENTS.md`)
	}
	return out
}

// TestExperimentsGolden pins the whole report, E1–E18, byte for byte
// against testdata/experiments.golden. Only lines EXPERIMENTS.md lists as
// schedule-dependent may differ, and then only when both the golden and
// the new line match the listed pattern. -update rewrites the golden.
func TestExperimentsGolden(t *testing.T) {
	var out strings.Builder
	if err := run("", &out); err != nil {
		t.Fatal(err)
	}
	if *updateExperimentsGolden {
		if err := os.WriteFile(experimentsGolden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(experimentsGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	patterns := schedulePatterns(t)
	gotLines := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("report has %d lines, golden %d", len(gotLines), len(wantLines))
	}
	section := ""
	for i, w := range wantLines {
		if sectionHeader.MatchString(w) {
			section = strings.Fields(w)[1]
		}
		g := gotLines[i]
		if g == w {
			continue
		}
		listed := false
		for _, p := range patterns {
			if p.id == section && p.re.MatchString(w) && p.re.MatchString(g) {
				listed = true
				break
			}
		}
		if !listed {
			t.Errorf("line %d (%s) moved:\n golden: %s\n    got: %s", i+1, section, w, g)
		}
	}
}
