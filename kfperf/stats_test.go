package main

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.75, 3.25}, {0.9, 3.7}, {1, 4},
	} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("quantile sorted its input in place")
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of odd count = %v, want 3", got)
	}
	if got := quantile([]float64{7}, 0.9); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestIQRShare(t *testing.T) {
	// Quartiles of 1..9 are 3 and 7, the median 5.
	xs := []float64{9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrShare(xs); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("iqrShare = %v, want 0.8", got)
	}
	if got := iqrShare([]float64{2, 2, 2}); got != 0 {
		t.Errorf("iqrShare of equal values = %v, want 0", got)
	}
}
