package plan

import (
	"encoding/json"
	"testing"

	"seco/internal/query"
	"seco/internal/types"
)

// Round trip: marshal the Fig. 10 plan, decode it against the same
// registry, and verify the structure, annotations and rendering survive.
func TestPlanJSONRoundTrip(t *testing.T) {
	reg := movieReg(t)
	p, _, err := RunningExamplePlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded plan invalid: %v", err)
	}
	if back.K != p.K {
		t.Errorf("K = %d, want %d", back.K, p.K)
	}
	// Annotations must match exactly: same flows through the same plan.
	a1, err := Annotate(p, Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Annotate(back, Fig10Fetches())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range p.NodeIDs() {
		if a1.Ann[id] != a2.Ann[id] {
			t.Errorf("annotation of %s drifted: %+v vs %+v", id, a1.Ann[id], a2.Ann[id])
		}
	}
	// Idempotence: a second round trip produces identical JSON.
	data2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("JSON not stable across round trips")
	}
	// The decoded service node keeps its bindings and pipe settings.
	r1, _ := p.Node("R")
	r2, _ := back.Node("R")
	if len(r2.Bindings) != len(r1.Bindings) || r2.PipeSelectivity != r1.PipeSelectivity || r2.Limit != r1.Limit {
		t.Errorf("R node drifted: %+v vs %+v", r2, r1)
	}
	if !r2.PipedFrom() {
		t.Error("decoded R lost its piped bindings")
	}
	// String constants come back as they went in, escapes and all, both as
	// a binding and as a predicate term.
	for _, str := range []string{`a"b`, `back\slash`, "tab\there"} {
		c := types.String(str)
		var jb jsonBinding
		roundTripJSON(t, encodeBinding(query.InputBinding{Path: "P", Source: query.BindingSource{Kind: query.BindConst, Const: c}}), &jb)
		b, err := decodeBinding(jb)
		if err != nil || !b.Source.Const.Equal(c) {
			t.Errorf("binding constant %q decoded as %v (%v)", str, b.Source.Const, err)
		}
		var jps []jsonPred
		roundTripJSON(t, encodePreds([]query.Predicate{{Left: query.PathRef{Alias: "A", Path: "P"}, Op: types.OpLike,
			Right: query.Term{Kind: query.TermConst, Const: c}}}), &jps)
		preds, err := decodePreds(jps)
		if err != nil || len(preds) != 1 || !preds[0].Right.Const.Equal(c) {
			t.Errorf("predicate constant %q decoded as %v (%v)", str, preds, err)
		}
	}
}

// roundTripJSON marshals v and unmarshals the bytes into out.
func roundTripJSON(t *testing.T, v, out any) {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
}

func TestPlanJSONTravelRoundTrip(t *testing.T) {
	reg := travelReg(t)
	p, _, err := TravelPlan(reg)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalPlan(data, reg)
	if err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("decoded travel plan invalid: %v", err)
	}
	sigma, ok := back.Node("sigma")
	if !ok || len(sigma.Selections) != 1 || sigma.Selectivity != 1.0/3.0 {
		t.Errorf("selection node drifted: %+v", sigma)
	}
}

func TestUnmarshalPlanErrors(t *testing.T) {
	reg := movieReg(t)
	cases := []string{
		`{`, // malformed
		`{"k":10,"nodes":[{"id":"x","kind":"bogus"}]}`,
		`{"k":10,"nodes":[{"id":"s","kind":"service","interface":"Nope"}]}`,
		`{"k":10,"nodes":[{"id":"j","kind":"join"}]}`, // no strategy
		`{"k":10,"nodes":[{"id":"a","kind":"input"}],"arcs":[["a","missing"]]}`,
		`{"k":10,"nodes":[{"id":"s","kind":"service","interface":"Movie1","stats":{"scoring":"bogus"}}]}`,
		`{"k":10,"nodes":[{"id":"s","kind":"service","interface":"Movie1","stats":{"scoring":"constant"},"bindings":[{"path":"p","kind":"bogus","op":"="}]}]}`,
	}
	for _, src := range cases {
		if _, err := UnmarshalPlan([]byte(src), reg); err == nil {
			t.Errorf("UnmarshalPlan(%q) succeeded, want error", src)
		}
	}
}

func TestCutFirst(t *testing.T) {
	a, p, ok := cutFirst("T.Movies.Title")
	if !ok || a != "T" || p != "Movies.Title" {
		t.Errorf("cutFirst = %q %q %v", a, p, ok)
	}
	if _, _, ok := cutFirst("nodot"); ok {
		t.Error("cutFirst accepted dotless string")
	}
}
