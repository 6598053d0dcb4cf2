package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, tc := range []struct {
		q       float64
		enough  int
		refused int
	}{
		{0.50, 20, 19},
		{0.90, 100, 99},
		{0.99, 1000, 999},
	} {
		if got := minSamples(tc.q); got != tc.enough {
			t.Errorf("minSamples(%g) = %d, want %d", tc.q, got, tc.enough)
		}
		p, err := percentile(seq(tc.enough), tc.q)
		if err != nil {
			t.Errorf("p%g over %d samples: unexpected refusal: %v", tc.q*100, tc.enough, err)
		}
		if p.N != tc.enough {
			t.Errorf("p%g sample count = %d, want %d", tc.q*100, p.N, tc.enough)
		}
		if _, err := percentile(seq(tc.refused), tc.q); err == nil {
			t.Errorf("p%g over %d samples: want refusal", tc.q*100, tc.refused)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	p, err := percentile(seq(100), 0.90)
	if err != nil || p.Value != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", p.Value, err)
	}
	p, err = percentile(seq(21), 0.50)
	if err != nil || p.Value != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", p.Value, err)
	}
	if _, err := percentile(seq(50), 1); err == nil {
		t.Fatal("q = 1 must be refused")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median odd = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median even = %v", m)
	}
}
