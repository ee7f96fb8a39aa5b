package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{35, 15, 50, 20, 40} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {20, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 35 {
		t.Error("percentile sorted its input in place")
	}
}

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	// Eight finished jobs and two failures.
	xs := []float64{inf, 8, 1, 7, 2, 6, 3, 5, 4, inf}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(xs, 80); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(xs, 90); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: the failures are the top fifth", got)
	}
	if got := median(nil); !math.IsInf(got, 1) {
		t.Errorf("median of no sample = %v, want +Inf", got)
	}
}

func TestPutReplacesNonFinite(t *testing.T) {
	r := &result{Metrics: map[string]metric{}}
	r.put("job_p90_ms", math.Inf(1), "ms")
	if got := r.Metrics["job_p90_ms"].Value; got != notFinite {
		t.Errorf("+Inf reported as %v, want %v", got, notFinite)
	}
}
