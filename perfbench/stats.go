package main

import (
	"math"
	"math/rand"
	"sort"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between order statistics. xs need not be sorted; it
// is not modified. An empty input yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return sortedQuantile(s, q)
}

func sortedQuantile(s []float64, q float64) float64 {
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	if frac == 0 {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo]) // +Inf when s[lo+1] is +Inf

}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles is the ladder the reported tail percentile is
// chosen from, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// tailPercentile returns the highest percentile of tailPercentiles
// that leaves at least ten of n samples beyond it, or 0 when n is too
// small for even the median to qualify. A percentile with fewer than
// ten samples beyond it is a statement about one or two outliers, not
// about the tail.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Unlike math/rand.Zipf it accepts s <= 1, which the
// churn workload's s = 1.0 popularity needs.
type zipf struct {
	cdf []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -s)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

// draw returns one rank using a single uniform variate from rng.
func (z *zipf) draw(rng *rand.Rand) int {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// rung is one open-loop step of a workload's rate ladder.
type rung struct {
	Rate      float64 // target sends per second
	Attempted int
	Failed    int
	// Achieved is the measured rate: successful completions per second
	// from the first scheduled send to the last completion.
	Achieved float64
	// LatMs are per-request latencies from the intended send time and
	// SvcMs from the actual send, in schedule order; a failed request
	// is +Inf in both, so it misses any limit.
	LatMs, SvcMs []float64
	// LagUs are per-request send lags (actual - intended), in
	// schedule order.
	LagUs []float64
}

// p99 and p50 are the rung's latency percentiles from the actual send
// time. Timed from the intended send time instead, every request
// queued behind a stall of the shared two-CPU machine — which the
// generator, sharing those CPUs with the daemon, suffers too — is
// charged the stall: p99 then moved between 0.5 and 5.3 ms across
// identical runs while the send lag's p99 tracked it. The intended-
// time figures and the lag stay in the run's report, and a rung whose
// backlog grows still fails.
func (r *rung) p99() float64 { return quantile(r.SvcMs, 0.99) }

func (r *rung) p50() float64 { return quantile(r.SvcMs, 0.5) }

// backlogGrowing reports whether the generator fell behind its
// schedule for good: the median send lag over the last tenth of the
// rung exceeds the latency limit. A server that keeps up leaves the
// lag at timer precision; one that cannot keep up makes it grow
// without bound.
func (r *rung) backlogGrowing(limitMs float64) bool {
	n := len(r.LagUs)
	if n == 0 {
		return true
	}
	tail := r.LagUs[n-max(1, n/10):]
	return median(tail)/1000 > limitMs
}

// meetsSLO: p99 within the limit and the backlog not growing.
func (r *rung) meetsSLO(limitMs float64) bool {
	if r.Attempted == 0 {
		return false
	}
	return r.p99() <= limitMs && !r.backlogGrowing(limitMs)
}

// rateAtSLO estimates the highest rate that meets the limit from the
// ladder (rungs in ascending rate), in measured completions per second.
// A passing top rung reports what it achieved. Otherwise, above the
// highest passing rung, p99 is interpolated linearly to the next rung
// and the achieved rates with it, so the figure moves smoothly as
// capacity moves between rungs instead of jumping by the ladder's
// factor of two. When no rung passes, the bottom rung's achieved rate
// is scaled by limit/p99.
func rateAtSLO(rungs []*rung, limitMs float64) float64 {
	top := -1
	for i, r := range rungs {
		if r.meetsSLO(limitMs) {
			top = i
		}
	}
	switch {
	case top == len(rungs)-1:
		return rungs[top].Achieved
	case top < 0:
		p := rungs[0].p99()
		if math.IsInf(p, 1) || p <= 0 {
			return 0
		}
		return rungs[0].Achieved * math.Min(1, limitMs/p)
	}
	lo, hi := rungs[top], rungs[top+1]
	p0, p1 := lo.p99(), hi.p99()
	if math.IsInf(p1, 1) || p1 <= p0 || hi.Achieved <= lo.Achieved {
		return lo.Achieved
	}
	return lo.Achieved + (hi.Achieved-lo.Achieved)*math.Min(1, (limitMs-p0)/(p1-p0))
}
