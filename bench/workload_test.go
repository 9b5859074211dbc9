package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func sequence(w *workload, seed int64, client, n int) [][]byte {
	gen := w.newGen(w, seed, client)
	out := make([][]byte, n)
	for i := range out {
		out[i] = gen().body
	}
	return out
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	const n = 400
	for _, w := range workloads() {
		for client := 0; client < w.clients; client++ {
			a, b := sequence(w, 7, client, n), sequence(w, 7, client, n)
			for i := range a {
				if !bytes.Equal(a[i], b[i]) {
					t.Fatalf("%s client %d: request %d differs between two runs of seed 7", w.name, client, i)
				}
			}
			other := sequence(w, 8, client, n)
			same := true
			for i := range a {
				same = same && bytes.Equal(a[i], other[i])
			}
			if same {
				t.Errorf("%s client %d: seeds 7 and 8 give the same %d requests", w.name, client, n)
			}
		}
	}
}

func TestEveryRequestCarriesTheDeadline(t *testing.T) {
	for _, w := range workloads() {
		for _, body := range sequence(w, 7, 0, 20) {
			var req wireRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if req.DeadlineMS != deadlineMS || req.Query == "" || req.K == 0 {
				t.Fatalf("%s: request %s", w.name, body)
			}
		}
	}
}

func TestConftravelMixesResultSizesEvenly(t *testing.T) {
	w, _ := workloadByName("conftravel-deep")
	gen := w.newGen(w, 7, 0)
	counts := map[int]int{}
	for i := 0; i < 300; i++ {
		counts[gen().class]++
	}
	for class := range w.classes {
		if counts[class] != 100 {
			t.Errorf("class %d (k=%d) sent %d times in 300, want 100", class, w.classes[class].k, counts[class])
		}
	}
}

func TestChurnVariantsNeverRepeat(t *testing.T) {
	w, _ := workloadByName("triangle-churn")
	canonical := w.bodies()[0]
	seen := map[string]bool{}
	const n = 4000
	for client := 0; client < w.clients; client++ {
		cold := 0
		for _, body := range sequence(w, 7, client, n) {
			if bytes.Equal(body, canonical) {
				continue
			}
			cold++
			if seen[string(body)] {
				t.Fatalf("client %d repeats variant %s", client, body)
			}
			seen[string(body)] = true
		}
		if cold != n/churnEvery {
			t.Errorf("client %d: %d cold requests in %d, want %d", client, cold, n, n/churnEvery)
		}
	}
}
