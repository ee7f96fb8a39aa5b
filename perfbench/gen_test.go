package main

import (
	"math"
	"reflect"
	"testing"
	"time"
)

func TestPoissonArrivalsReproducible(t *testing.T) {
	const rate, window = 4.0, 25 * time.Second
	a := poissonArrivals(7, rate, window)
	if b := poissonArrivals(7, rate, window); !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different schedules")
	}
	if c := poissonArrivals(8, rate, window); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if n := len(a); n != 100 {
		t.Errorf("%d arrivals at %v/s over %v, want exactly 100", n, rate, window)
	}
	seeds := map[int64]bool{}
	for i, x := range a {
		if x.Due < 0 || x.Due >= window || (i > 0 && x.Due < a[i-1].Due) {
			t.Fatalf("arrival %d due at %v: out of order or outside the window", i, x.Due)
		}
		seeds[x.Seed] = true
	}
	if len(seeds) != len(a) {
		t.Errorf("%d distinct job seeds for %d arrivals", len(seeds), len(a))
	}
}

func TestRateInCountsCompletions(t *testing.T) {
	base := time.Unix(1000, 0)
	var done []time.Time
	// A stall, then its backlog of 30 jobs finishing within 30 ms.
	for i := 0; i < 30; i++ {
		done = append(done, base.Add(2*time.Second+time.Duration(i)*time.Millisecond))
	}
	done = append(done, base.Add(-time.Second), base.Add(3*time.Second)) // outside
	if got := rateIn(done, base, base.Add(3*time.Second)); math.Abs(got-10) > 1e-9 {
		t.Errorf("rate = %v, want 30 jobs / 3 s = 10/s", got)
	}
}
