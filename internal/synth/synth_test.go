package synth

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"seco/internal/mart"
	"seco/internal/service"
	"seco/internal/types"
)

func TestNewRankedGeneratesRankedChunks(t *testing.T) {
	tab, err := NewRanked(RankedConfig{
		Name: "G", N: 30, KeyMod: 5,
		Stats: service.Stats{AvgCardinality: 30, ChunkSize: 10, Scoring: service.Linear(30)},
	})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := tab.Invoke(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	last := 2.0
	chunks := 0
	for {
		c, err := inv.Fetch(context.Background())
		if errors.Is(err, service.ErrExhausted) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		chunks++
		for _, tu := range c.Tuples {
			if tu.Score > last {
				t.Fatalf("scores not ranked: %v after %v", tu.Score, last)
			}
			last = tu.Score
		}
	}
	if chunks != 3 {
		t.Errorf("chunks = %d, want 3", chunks)
	}
}

func TestNewRankedShuffleDeterministic(t *testing.T) {
	mk := func() *service.Table {
		tab, err := NewRanked(RankedConfig{
			Name: "G", N: 20, KeyMod: 4, Shuffle: true, Seed: 42,
			Stats: service.Stats{ChunkSize: 5, Scoring: service.Linear(20)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	a, b := mk(), mk()
	ia, _ := a.Invoke(context.Background(), nil)
	ib, _ := b.Invoke(context.Background(), nil)
	ca, _ := ia.Fetch(context.Background())
	cb, _ := ib.Fetch(context.Background())
	for i := range ca.Tuples {
		if !ca.Tuples[i].Get("Key").Equal(cb.Tuples[i].Get("Key")) {
			t.Fatal("same seed produced different keys")
		}
	}
}

func TestNewRankedRejectsBadConfig(t *testing.T) {
	if _, err := NewRanked(RankedConfig{Name: "G", N: 0, KeyMod: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := NewRanked(RankedConfig{Name: "G", N: 5, KeyMod: 0}); err == nil {
		t.Error("KeyMod=0 accepted")
	}
}

func TestNewKeyed(t *testing.T) {
	tab, err := NewKeyed("K", 4, 3, service.Stats{AvgCardinality: 3, Scoring: service.Linear(3)})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := tab.Invoke(context.Background(), service.Input{{Path: "Key", Value: types.Int(2)}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := inv.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tuples) != 3 {
		t.Fatalf("per-key tuples = %d, want 3", len(c.Tuples))
	}
	for _, tu := range c.Tuples {
		if tu.Get("Key").IntVal() != 2 {
			t.Errorf("wrong key: %v", tu)
		}
	}
	if _, err := NewKeyed("K", 0, 1, service.Stats{}); err == nil {
		t.Error("keys=0 accepted")
	}
}

func TestMovieWorldCoherent(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewMovieWorld(reg, MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if w.Movies.Len() != 200 || w.Theatres.Len() != 50 {
		t.Errorf("sizes: %d movies, %d theatres", w.Movies.Len(), w.Theatres.Len())
	}
	if w.Restaurants.Len() == 0 {
		t.Fatal("no restaurants generated")
	}
	// The canonical inputs return movies.
	inv, err := w.Movies.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"Genres.Genre":     w.Inputs["INPUT1"],
		"Language":         w.Inputs["INPUT7"],
		"Openings.Country": w.Inputs["INPUT2"],
		"Openings.Date":    w.Inputs["INPUT3"],
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := inv.Fetch(context.Background())
	if err != nil || len(c.Tuples) == 0 {
		t.Fatalf("no matching movies: %v", err)
	}
	// Theatres near the canonical user location exist and are ranked by
	// distance.
	tin, err := w.Theatres.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"UAddress": w.Inputs["INPUT4"],
		"UCity":    w.Inputs["INPUT5"],
		"UCountry": w.Inputs["INPUT2"],
	}))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := tin.Fetch(context.Background())
	if err != nil || len(tc.Tuples) == 0 {
		t.Fatalf("no theatres: %v", err)
	}
	// DinnerPlace holds for some theatre: a restaurant at the theatre's
	// address.
	found := false
	for _, th := range tc.Tuples {
		rinv, err := w.Restaurants.Invoke(context.Background(), service.NewInput(map[string]types.Value{
			"UAddress":        th.Get("TAddress"),
			"UCity":           th.Get("TCity"),
			"UCountry":        th.Get("TCountry"),
			"Categories.Name": w.Inputs["INPUT6"],
		}))
		if err != nil {
			t.Fatal(err)
		}
		rc, err := rinv.Fetch(context.Background())
		if err == nil && len(rc.Tuples) > 0 {
			found = true
			break
		}
	}
	if !found {
		t.Error("no theatre has a matching restaurant in the first chunk")
	}
}

func TestMovieWorldDeterministic(t *testing.T) {
	reg, err := mart.MovieScenario()
	if err != nil {
		t.Fatal(err)
	}
	w1, err := NewMovieWorld(reg, MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := NewMovieWorld(reg, MovieConfig{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if w1.Restaurants.Len() != w2.Restaurants.Len() {
		t.Error("same seed, different restaurant counts")
	}
	w3, err := NewMovieWorld(reg, MovieConfig{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	_ = w3 // different seed must still be valid
}

func TestTravelWorldCoherent(t *testing.T) {
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTravelWorld(reg, TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// 3 topics × 20 conferences.
	if w.Conferences.Len() != 60 {
		t.Errorf("conferences = %d, want 60", w.Conferences.Len())
	}
	// Conferences on the canonical topic.
	inv, err := w.Conferences.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"Topic": w.Inputs["INPUT1"],
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := inv.Fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Tuples) != 20 {
		t.Fatalf("conferences on topic = %d, want 20 (the Fig. 2 cardinality)", len(c.Tuples))
	}
	conf := c.Tuples[0]
	// Weather for the conference city and month exists.
	winv, err := w.Weather.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"City":  conf.Get("City"),
		"Month": w.Inputs["INPUT3"],
	}))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := winv.Fetch(context.Background())
	if err != nil || len(wc.Tuples) != 1 {
		t.Fatalf("weather tuples = %d (%v), want 1", len(wc.Tuples), err)
	}
	// Flights to the conference city on its start date exist, ranked.
	finv, err := w.Flights.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"From": w.Inputs["INPUT2"],
		"To":   conf.Get("City"),
		"Date": conf.Get("StartDate"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	fc, err := finv.Fetch(context.Background())
	if err != nil || len(fc.Tuples) == 0 {
		t.Fatalf("no flights: %v", err)
	}
	// Hotels in the city exist.
	hinv, err := w.Hotels.Invoke(context.Background(), service.NewInput(map[string]types.Value{
		"City": conf.Get("City"),
	}))
	if err != nil {
		t.Fatal(err)
	}
	hc, err := hinv.Fetch(context.Background())
	if err != nil || len(hc.Tuples) == 0 {
		t.Fatalf("no hotels: %v", err)
	}
	if len(w.Services()) != 4 {
		t.Error("Services map incomplete")
	}
}

func TestTravelWorldSomeCitiesHot(t *testing.T) {
	reg, err := mart.TravelScenario()
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewTravelWorld(reg, TravelConfig{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	hot, cold := 0, 0
	for i := 0; i < 12; i++ {
		inv, err := w.Weather.Invoke(context.Background(), service.NewInput(map[string]types.Value{
			"City":  types.String(fmtCity(i)),
			"Month": w.Inputs["INPUT3"],
		}))
		if err != nil {
			t.Fatal(err)
		}
		c, err := inv.Fetch(context.Background())
		if err != nil || len(c.Tuples) != 1 {
			t.Fatal("missing weather row")
		}
		if c.Tuples[0].Get("AvgTemp").FloatVal() > 26 {
			hot++
		} else {
			cold++
		}
	}
	if hot == 0 || cold == 0 {
		t.Errorf("weather not selective in context: %d hot, %d cold", hot, cold)
	}
}

func fmtCity(i int) string { return fmt.Sprintf("City-%02d", i) }

func TestRandomWorkloadBasics(t *testing.T) {
	w, err := RandomWorkload(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Tables) != 5 || len(w.Stats) != 5 || len(w.Services()) != 5 {
		t.Fatalf("workload incomplete: %d tables, %d stats", len(w.Tables), len(w.Stats))
	}
	if w.QueryText == "" || w.Inputs["INPUT1"].IsNull() {
		t.Error("query text or inputs missing")
	}
	// Roots have no parent; non-roots point at an earlier alias.
	roots := 0
	for alias, parent := range w.Parents {
		if parent == "" {
			roots++
			continue
		}
		if _, ok := w.Tables[parent]; !ok {
			t.Errorf("alias %s has unknown parent %s", alias, parent)
		}
	}
	if roots == 0 {
		t.Error("no root service")
	}
	// Determinism: the same seed regenerates the same query text.
	w2, err := RandomWorkload(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if w2.QueryText != w.QueryText {
		t.Error("same seed produced different workloads")
	}
	// Bounds are enforced.
	if _, err := RandomWorkload(1, 1); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := RandomWorkload(1, 13); err == nil {
		t.Error("n=13 accepted")
	}
}
