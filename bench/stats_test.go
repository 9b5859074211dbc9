package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it: p99 needs a thousand samples, fewer lower it.
func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n     int
		wantP float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 989.0 / 999}, {500, 0.98}, {100, 0.9}, {25, 0.6}, {20, 0.5}, {11, 6.0 / 11}, {1, 1},
	} {
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		value, p := tail(sorted, 0.99)
		if math.Abs(p-tc.wantP) > 1e-12 {
			t.Errorf("n=%d: tail percentile %v, want %v", tc.n, p, tc.wantP)
		}
		beyond := float64(tc.n-1) - value
		if tc.n >= 2*minBeyond && beyond < minBeyond {
			t.Errorf("n=%d: only %v samples beyond p%v", tc.n, beyond, 100*p)
		}
		if value < percentile(sorted, 0.5) {
			t.Errorf("n=%d: tail %v below the median", tc.n, value)
		}
	}
	if v, p := tail(nil, 0.99); v != 0 || p != 0 {
		t.Errorf("tail of nothing = %v at %v", v, p)
	}
}

func TestMedianOfSlices(t *testing.T) {
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	// One slice that a stall ruined moves the mean, not the reported figure.
	p := &pass{slices: []sliceStats{{rps: 100}, {rps: 102}, {rps: 7}, {rps: 101}, {rps: 99}}}
	if got := p.over(func(s sliceStats) float64 { return s.rps }); got != 100 {
		t.Errorf("median slice = %v, want 100", got)
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPassShape(t *testing.T) {
	for _, tc := range []struct {
		seconds float64
		n       int
	}{{30, 6}, {20, 4}, {15, 3}, {6, 3}, {1, 3}} {
		warm, slice, n := passShape(tc.seconds)
		if n != tc.n {
			t.Errorf("passShape(%v): %d slices, want %d", tc.seconds, n, tc.n)
		}
		if got := slice.Seconds() * float64(n); math.Abs(got-tc.seconds) > 1e-6 {
			t.Errorf("passShape(%v): slices cover %v s", tc.seconds, got)
		}
		if warm.Seconds() > 3 || warm.Seconds() > tc.seconds {
			t.Errorf("passShape(%v): warm-up %v", tc.seconds, warm)
		}
	}
}
