package main

import (
	"math"
	"math/rand"
	"testing"
)

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.125, 1.5}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("quantile sorted its input in place")
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of nothing is not NaN")
	}
	if got := quantile([]float64{1, math.Inf(1)}, 0); got != 1 {
		t.Errorf("quantile at an exact rank next to +Inf = %v, want 1", got)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
		if p := tailPercentile(c.n); p > 0 && float64(c.n)*(1-p/100) < 10-1e-9 {
			t.Errorf("tailPercentile(%d) = %v leaves fewer than ten samples beyond it", c.n, p)
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 0.5}, {20, 0.5}, {40, 0.75}, {50, 0.8}, {1000, 0.99}, {5000, 0.99}} {
		if got := tailQuantile(c.n); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestZipfFrequencies(t *testing.T) {
	const n, draws = 50, 400000
	z := newZipf(n, 1.0)
	rng := rand.New(rand.NewSource(3))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.draw(rng)]++
	}
	h := 0.0
	for k := 1; k <= n; k++ {
		h += 1 / float64(k)
	}
	for _, k := range []int{0, 1, 4, 49} {
		want := draws / (float64(k+1) * h)
		if got := float64(counts[k]); math.Abs(got-want) > 5*math.Sqrt(want) {
			t.Errorf("rank %d drawn %v times, want about %.0f", k, got, want)
		}
	}
	for k := 1; k < 10; k++ {
		if counts[k] >= counts[0] {
			t.Errorf("rank %d (%d draws) is not rarer than rank 0 (%d)", k, counts[k], counts[0])
		}
	}
}

func TestZipfDeterministic(t *testing.T) {
	z := newZipf(2048, 1.0)
	a, b := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		if x, y := z.draw(a), z.draw(b); x != y {
			t.Fatalf("draw %d: %d != %d from the same seed", i, x, y)
		}
	}
}

// steadyRung is a rung whose every request took latMs and left lagUs
// late.
func steadyRung(rate, latMs, lagUs float64, n int) *rung {
	r := &rung{Rate: rate, Attempted: n, Achieved: rate}
	for i := 0; i < n; i++ {
		r.LatMs = append(r.LatMs, latMs+lagUs/1000)
		r.SvcMs = append(r.SvcMs, latMs)
		r.LagUs = append(r.LagUs, lagUs)
	}
	return r
}

func TestRungSLO(t *testing.T) {
	if !steadyRung(1000, 2, 10, 1000).meetsSLO(5) {
		t.Error("a rung at 2 ms with 10 µs lag misses a 5 ms SLO")
	}
	if steadyRung(1000, 6, 10, 1000).meetsSLO(5) {
		t.Error("a rung at 6 ms meets a 5 ms SLO")
	}

	// Under the limit at p99, but the generator ends ever further
	// behind its schedule: a growing backlog fails the rung.
	r := steadyRung(1000, 1, 0, 1000)
	for i := range r.LagUs {
		r.LagUs[i] = float64(i) * 20 // reaches 20 ms late by the end
	}
	if !r.backlogGrowing(5) || r.meetsSLO(5) {
		t.Error("a rung whose send lag grows to 20 ms passes a 5 ms SLO")
	}

	// Two failed requests in a hundred push p99 to +Inf.
	f := steadyRung(1000, 1, 0, 100)
	f.SvcMs[0], f.SvcMs[1] = math.Inf(1), math.Inf(1)
	f.Failed = 2
	if f.meetsSLO(5) {
		t.Error("a rung with 2% failures meets the SLO")
	}
}

func TestRateAtSLO(t *testing.T) {
	const limit = 5.0
	pass := func(rate float64) *rung { return steadyRung(rate, 1, 5, 1000) }
	fail := func(rate, p99 float64) *rung { return steadyRung(rate, p99, 5, 1000) }
	for _, c := range []struct {
		name  string
		rungs []*rung
		want  float64
	}{
		{"all pass", []*rung{pass(3000), pass(6000), pass(12000)}, 12000},
		// p99 1 ms at 6000, 9 ms at 12000: the limit is crossed halfway.
		{"interpolated", []*rung{pass(3000), pass(6000), fail(12000, 9)}, 9000},
		// A spurious failure on a low rung does not hide a passing
		// higher one.
		{"low rung blip", []*rung{fail(3000, 7), pass(6000), fail(12000, 9)}, 9000},
		{"none pass", []*rung{fail(500, 10), fail(1000, 20), fail(2000, 40)}, 250},
		{"next rung failed outright", []*rung{pass(500), fail(1000, math.Inf(1))}, 500},
		// The figure is what the rungs achieved, not their targets.
		{"achieved", []*rung{pass(500), pass(1000), {Rate: 2000, Attempted: 1000, Achieved: 1987.5,
			SvcMs: pass(1).SvcMs, LagUs: pass(1).LagUs}}, 1987.5},
	} {
		if got := rateAtSLO(c.rungs, limit); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s: rateAtSLO = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) with children [10,30) and [20,50) (overlapping) and
	// a grandchild [12,18) inside the first child.
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 1, Start: 12, End: 18},
	}
	want := []int64{60, 14, 30, 6}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
	st := summarize(spans)
	if c := st.coverage; math.Abs(c-0.5) > 1e-12 {
		t.Errorf("coverage = %v, want 0.5 (layer self 50 of request 100)", c)
	}
}

func TestTracerDisabledRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.do("x", -1, 0, func() {})
	if len(tr.spans) != 0 {
		t.Errorf("disabled tracer recorded %d spans", len(tr.spans))
	}
}
