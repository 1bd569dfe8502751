package main

import (
	"math"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sendFunc issues request number i on worker w's connection and
// reports whether it succeeded. Each worker calls it serially, so a
// worker owns its connection.
type sendFunc func(w, i int) bool

// waitUntil blocks until t with sub-100µs precision. time.Sleep
// rounds short sleeps up to the runtime's timer granularity (about a
// millisecond on Linux), which would turn a 6,000 qps schedule into a
// measurement of the generator; nanosleep(2) lands within tens of
// microseconds, and a short spin covers the rest.
func waitUntil(t time.Time) {
	const slack = 60 * time.Microsecond
	for {
		d := time.Until(t)
		switch {
		case d <= 0:
			return
		case d > 2*time.Millisecond:
			time.Sleep(d - time.Millisecond)
		case d > slack+20*time.Microsecond:
			ts := syscall.NsecToTimespec(int64(d - slack))
			_ = syscall.Nanosleep(&ts, nil) // EINTR only shortens the wait; the loop re-checks
		default:
			for time.Now().Before(t) {
			}
			return
		}
	}
}

// closedResult is one closed-loop window.
type closedResult struct {
	Attempted, Failed int
	Elapsed           time.Duration
}

// QPS is completed (successful) requests per second.
func (c closedResult) QPS() float64 {
	return float64(c.Attempted-c.Failed) / c.Elapsed.Seconds()
}

// closedLoop runs workers clients back to back for dur: each sends
// its next request only after the previous one completes. Requests
// are numbered from first upward in issue order.
func closedLoop(workers int, dur time.Duration, first int, send sendFunc) closedResult {
	var next atomic.Int64
	next.Store(int64(first))
	sent := make([]int, workers)
	fails := make([]int, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				sent[w]++
				if !send(w, int(next.Add(1)-1)) {
					fails[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	res := closedResult{Elapsed: time.Since(start)}
	for w := range sent {
		res.Attempted += sent[w]
		res.Failed += fails[w]
	}
	return res
}

// openLoop sends at a fixed rate for dur regardless of completions:
// request k is due at start + k/rate. Each request's latency is
// recorded both from that due time, so a stall is charged to every
// request it delays, and from its actual send.
// At most workers requests are in flight (one per connection); a
// request whose worker is still busy leaves late, and that lateness
// is recorded as send lag. Requests are numbered first+k.
func openLoop(rate float64, dur time.Duration, workers, first int, send sendFunc) *rung {
	n := int(rate * dur.Seconds())
	r := &rung{Rate: rate, Attempted: n}
	if n == 0 {
		return r
	}
	lat := make([]float64, n)
	svc := make([]float64, n)
	lag := make([]float64, n)
	ok := make([]bool, n)
	var next, okN, last atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := start.Add(time.Duration(k) * interval)
				waitUntil(due)
				sent := time.Now()
				ok[k] = send(w, first+k)
				done := time.Now()
				lag[k] = float64(sent.Sub(due)) / 1e3
				lat[k] = float64(done.Sub(due)) / 1e6
				svc[k] = float64(done.Sub(sent)) / 1e6
				if ok[k] {
					okN.Add(1)
					d := done.Sub(start).Nanoseconds()
					for cur := last.Load(); d > cur && !last.CompareAndSwap(cur, d); cur = last.Load() {
					}
				}
			}
		}(w)
	}
	wg.Wait()
	r.LagUs = lag
	for k := range ok {
		if !ok[k] {
			lat[k], svc[k] = math.Inf(1), math.Inf(1)
			r.Failed++
		}
	}
	r.LatMs, r.SvcMs = lat, svc
	if d := time.Duration(last.Load()); d > 0 {
		r.Achieved = float64(okN.Load()) / d.Seconds()
	}
	return r
}
