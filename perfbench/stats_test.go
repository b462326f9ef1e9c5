package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want float64 // 0: must refuse
	}{
		{n: 99, q: 0.9},
		{n: 100, q: 0.9, want: 90},
		{n: 19, q: 0.5},
		{n: 20, q: 0.5, want: 10},
		{n: 21, q: 0.5, want: 11},
		{n: 5, q: 0.5},
		{n: 0, q: 0.5},
	}
	for _, c := range cases {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
}

func TestPercentileCountsFailuresAsSlowest(t *testing.T) {
	xs := seq(100)
	for i := 0; i < 11; i++ {
		xs[i] = math.Inf(1)
	}
	got, err := percentile(xs, 0.9)
	if err != nil || !math.IsInf(got, 1) {
		t.Fatalf("p90 with 11%% failed units = %g, %v; want +Inf", got, err)
	}
}

func TestErrorRateCountsRefusals(t *testing.T) {
	cases := []struct {
		t    tally
		want float64
	}{
		{tally{attempted: 10}, 0},
		{tally{attempted: 10, refused: 1}, 0.1},
		{tally{attempted: 10, failed: 1}, 0.1},
		{tally{attempted: 10, failed: 2, refused: 3}, 0.5},
	}
	for _, c := range cases {
		if got := c.t.errorRate(); got != c.want {
			t.Errorf("%+v: error rate %g, want %g", c.t, got, c.want)
		}
		if c.t.bad() != c.t.failed+c.t.refused {
			t.Errorf("%+v: bad() = %d", c.t, c.t.bad())
		}
	}
}
