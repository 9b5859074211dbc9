package engine

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestTopKMatchesStableSortThenTruncate is the bounded top-K's property:
// for any stream of scores it keeps exactly what stable-sorting every
// pulled comb by decreasing score and truncating to K keeps, in that
// order — ties straddling the K-th position resolved by arrival, K beyond
// the stream, K = 0 (keep all) and infinite scores included — and its
// K-th score is the truncated list's last.
func TestTopKMatchesStableSortThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	palette := []float64{0, 0.25, 0.5, 0.5, 0.75, 1, math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(40)
		k := rng.Intn(12) // 0 keeps everything; often k ≥ n
		combs := make([]*comb, n)
		for i := range combs {
			combs[i] = &comb{score: palette[rng.Intn(len(palette))]}
			if trial%4 == 0 {
				combs[i].score = rng.Float64()
			}
		}
		want := append([]*comb(nil), combs...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].score > want[j].score })
		if k > 0 && len(want) > k {
			want = want[:k]
		}

		best := newTopK(k, 4)
		for i, c := range combs {
			best.push(c)
			if full := k > 0 && i+1 >= k; best.full() != full {
				t.Fatalf("trial %d: full() = %v after %d of k=%d", trial, best.full(), i+1, k)
			}
			if best.full() {
				seen := append([]*comb(nil), combs[:i+1]...)
				sort.SliceStable(seen, func(a, b int) bool { return seen[a].score > seen[b].score })
				if best.kth() != seen[k-1].score {
					t.Fatalf("trial %d: kth() = %v after %d pulls, want %v", trial, best.kth(), i+1, seen[k-1].score)
				}
			}
		}
		got := best.ranked()
		if best.pulled != n || len(got) != len(want) {
			t.Fatalf("trial %d (n=%d k=%d): pulled %d, kept %d, want %d", trial, n, k, best.pulled, len(got), len(want))
		}
		for i := range got {
			if got[i].c != want[i] {
				t.Fatalf("trial %d (n=%d k=%d): rank %d holds arrival %d (score %v), want score %v",
					trial, n, k, i, got[i].seq, got[i].c.score, want[i].score)
			}
		}
	}
}
