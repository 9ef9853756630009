package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: the helper must sort
	}
	return xs
}

func TestTailPercentileKeepsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n        int
		p        float64
		wantUsed float64
		wantV    float64
	}{
		{n: 1000, p: 0.95, wantUsed: 0.95, wantV: 950}, // 50 beyond
		{n: 200, p: 0.95, wantUsed: 0.95, wantV: 190},  // exactly 10 beyond
		{n: 199, p: 0.95, wantUsed: 189.0 / 199, wantV: 189},
		{n: 100, p: 0.95, wantUsed: 0.90, wantV: 90},
		{n: 100, p: 0.5, wantUsed: 0.5, wantV: 50},
		{n: 15, p: 0.95, wantUsed: 0.5, wantV: 8}, // too few for any tail: the median
	} {
		v, used, n := tailPercentile(seq(tc.n), tc.p)
		if n != tc.n || math.Abs(used-tc.wantUsed) > 1e-12 || v != tc.wantV {
			t.Errorf("n=%d p=%v: got v=%v used=%v n=%d, want v=%v used=%v", tc.n, tc.p, v, used, n, tc.wantV, tc.wantUsed)
		}
		if tc.n > 2*minTail && beyond(n, used) < minTail {
			t.Errorf("n=%d p=%v: only %d samples beyond", tc.n, tc.p, beyond(n, used))
		}
	}
}

func TestTailPercentileEmpty(t *testing.T) {
	if v, _, n := tailPercentile(nil, 0.95); v != 0 || n != 0 {
		t.Fatalf("empty: got %v over %d samples", v, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: %v", got)
	}
}
