package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/graph"
	"repro/internal/invariant"
	"repro/internal/routing"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

const (
	scaleNodes = 100000
	scaleLinks = 3 * scaleNodes
	scaleName  = "synth100000"
	// scaleQueries bounds the generated first-touch sequence; a run
	// stops issuing when its window closes or the sequence runs out.
	scaleQueries = 64
	// scaleLimitMs is the per-query limit behind the scale workload's
	// rate_at_slo_qps: queries per second counting only those that
	// finished within it.
	scaleLimitMs = 10000
	scaleCache   = 4
	// scaleRadius pins the failure disks to the middle of the paper's
	// [100, 300] radius range. A query's cost grows with the failure's
	// perimeter; with the radius drawn too, forty first-touch queries
	// spread too widely for their median to repeat from run to run.
	scaleRadius = (failure.MinRadius + failure.MaxRadius) / 2
)

// scaleSnapshot synthesizes the tiered 100k-node topology (fixed
// synthesis seed, as rtrscale's default) and encodes it as an
// RTRSNAP1 snapshot.
func scaleSnapshot() ([]byte, error) {
	topo, err := topology.Generate(
		topology.GenParams{Name: scaleName, Nodes: scaleNodes, Links: scaleLinks, Tiers: true},
		rand.New(rand.NewSource(seed.Derive(topoSeed, "topogen", scaleName))))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	bw := bufio.NewWriterSize(&buf, 1<<16)
	if err := topology.WriteBinary(bw, topo, nil); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// loadScaleWorld is the workload's set-up: decode the snapshot and
// build the scale-mode world on it.
func loadScaleWorld(snap []byte) (*sim.World, error) {
	topo, err := topology.ReadBinary(bufio.NewReaderSize(bytes.NewReader(snap), 1<<16), nil)
	if err != nil {
		return nil, err
	}
	return sim.NewWorldFromConfig(topo, sim.WorldConfig{})
}

// genScaleQueries draws the seeded first-touch sequence: one case per
// failure disk (center uniform, radius scaleRadius), from
// sim.ScaleCasesFromScenario with a one-destination sample, so every
// query names a distinct failure instance and misses the cache.
func genScaleQueries(w *sim.World, wseed int64, n int) []serve.Query {
	rng := rand.New(rand.NewSource(seed.Derive(wseed, "scale-firsttouch", "queries")))
	seen := map[string]bool{}
	var qs []serve.Query
	for len(qs) < n {
		sc := failure.NewScenario(w.Topo, failure.RandomArea(rng, scaleRadius, scaleRadius))
		desc := sc.Desc()
		if seen[desc] {
			continue
		}
		rec, irr := sim.ScaleCasesFromScenario(w, sc, rng, 1)
		cases := append(rec, irr...)
		if len(cases) == 0 {
			continue
		}
		seen[desc] = true
		c := cases[rng.Intn(len(cases))]
		qs = append(qs, serve.Query{Topo: scaleName, Failure: desc, Src: int(c.Initiator), Dst: int(c.Dst)})
	}
	return qs
}

// scaleCase rebuilds the sim case a recovery query answers, exactly
// as the serving layer classifies it, for the invariant oracle.
func scaleCase(w *sim.World, q serve.Query) (*sim.Case, error) {
	sc, err := failure.ParseInstance(w.Topo, q.Failure)
	if err != nil {
		return nil, err
	}
	src, dst := graph.NodeID(q.Src), graph.NodeID(q.Dst)
	nh, link, ok := w.Tables.NextHop(src, dst)
	if !ok {
		return nil, fmt.Errorf("no pre-failure route %d -> %d", src, dst)
	}
	c := &sim.Case{Scenario: sc, Initiator: src, Dst: dst, NextHop: nh, Trigger: link}
	c.LV = routing.NewLocalView(w.Topo, sc)
	comps := w.Topo.G.Components(sc)
	comp := make(map[graph.NodeID]int)
	for i, cc := range comps {
		for _, v := range cc {
			comp[v] = i
		}
	}
	ci, okS := comp[src]
	cd, okD := comp[dst]
	c.Recoverable = !sc.NodeDown(dst) && okS && okD && ci == cd
	return c, nil
}

// tailQuantile is the quantile reported as the scale workload's
// lat_p99_ms: 0.99 when the run has the thousand samples a p99 needs,
// otherwise the highest quantile with ten samples beyond it. About
// forty first-touch queries fit a 20 s window; their p99 is the
// slowest query, which moved by a third between runs.
func tailQuantile(n int) float64 {
	return math.Max(0.5, math.Min(0.99, 1-10/float64(n)))
}

// checkRTR runs the invariant oracle's RTR checks on one case: the
// phase-1 walk, the recovery path and source-routed forwarding, on a
// fresh session. The workload serves rtr; the oracle's FCP check is
// left out because FCP on a 100k-node world can recompute for minutes
// on a single case.
func checkRTR(w *sim.World, c *sim.Case) []invariant.Violation {
	k := invariant.New(w)
	sess, err := w.RTR.NewSession(c.LV, c.Initiator)
	if err != nil {
		return []invariant.Violation{{Check: "rtr/session", Detail: err.Error()}}
	}
	col, err := sess.Collect(c.Trigger)
	if errors.Is(err, core.ErrNoLiveNeighbor) {
		return nil
	}
	if err != nil {
		return []invariant.Violation{{Check: "rtr/collect-failed", Detail: err.Error()}}
	}
	vs := k.CheckCollect(c, col)
	rt, ok := sess.RecoveryPath(c.Dst)
	vs = append(vs, k.CheckRecoveryPath(c, col, rt, ok)...)
	if ok {
		vs = append(vs, k.CheckRTRForward(c, rt, sess.ForwardSourceRouted(rt))...)
	}
	return vs
}

// scaleSetup builds the world scaleSetups times and reports the build
// times. The first world also generates the query sequence (which
// warms its lazy tables), so it is dropped; the last one is served.
func scaleSetup(e env) (w *sim.World, qs []serve.Query, setups []float64, err error) {
	snap, err := scaleSnapshot()
	if err != nil {
		return nil, nil, nil, err
	}
	for k := 0; k < scaleSetups; k++ {
		w = nil
		runtime.GC()
		t0 := time.Now()
		if w, err = loadScaleWorld(snap); err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k == 0 {
			qs = genScaleQueries(w, e.seed, scaleQueries)
			w = nil
			debug.FreeOSMemory()
			if err := resetPeakRSS(); err != nil {
				return nil, nil, nil, err
			}
		}
	}
	return w, qs, setups, nil
}

func runScale(e env) (*result, error) {
	w, qs, setups, err := scaleSetup(e)
	if err != nil {
		return nil, err
	}
	eng, err := serve.New(serve.Config{
		Worlds:        map[string]*sim.World{scaleName: w},
		CacheEntries:  scaleCache,
		DefaultScheme: serve.SchemeRTR,
	})
	if err != nil {
		return nil, err
	}

	// Closed loop over the distinct sequence: a worker takes the next
	// query only after its previous one completes; nothing is issued
	// after the window closes.
	var (
		next       atomic.Int64
		mu         sync.Mutex
		latMs      []float64
		answered   []int
		failed     int
		recoveries int
		// rate sums each worker's completions over its own busy time,
		// so the queries still in flight when the window closes do not
		// stretch the denominator.
		rate, recRate float64
	)
	start := time.Now()
	deadline := start.Add(e.window(1))
	var wg sync.WaitGroup
	for k := 0; k < e.procs; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, rec := 0, 0
			defer func() {
				busy := time.Since(start).Seconds()
				mu.Lock()
				rate += float64(n) / busy
				recRate += float64(rec) / busy
				mu.Unlock()
			}()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				t0 := time.Now()
				resp, err := eng.Query(qs[i])
				d := float64(time.Since(t0)) / 1e6
				mu.Lock()
				switch {
				case err != nil:
					failed++
					logf("scale-firsttouch: query %d: %v", i, err)
				case resp.CacheHit:
					failed++
					logf("scale-firsttouch: query %d hit the cache; the sequence must be distinct", i)
				default:
					latMs = append(latMs, d)
					answered = append(answered, i)
					n++
					if resp.Disposition == serve.DispRecovery {
						recoveries++
						rec++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}
	res := newResult()
	res.Attempted = len(latMs) + failed
	res.Failed = failed
	if len(latMs) == 0 {
		return nil, fmt.Errorf("no query completed in the window")
	}

	// Output check: the oracle's RTR checks on two seeded answered
	// cases.
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, "scale-firsttouch", "check")))
	for _, j := range rng.Perm(len(answered))[:min(2, len(answered))] {
		c, err := scaleCase(w, qs[answered[j]])
		res.Attempted++
		if err == nil {
			if vs := checkRTR(w, c); len(vs) > 0 {
				err = vs[0]
			}
		}
		if err != nil {
			res.Failed++
			res.Correct = false
			logf("scale-firsttouch: oracle on query %d: %v", answered[j], err)
		}
	}
	if failed > 0 {
		res.Correct = false
	}

	inLimit := 0
	for _, l := range latMs {
		if l <= scaleLimitMs {
			inLimit++
		}
	}
	res.set("setup_s", median(setups), "s")
	res.set("success_rate", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	res.set("qps_closed", rate, "1/s")
	res.set("lat_p50_ms", quantile(latMs, 0.5), "ms")
	res.set("lat_p99_ms", quantile(latMs, tailQuantile(len(latMs))), "ms")
	res.set("rate_at_slo_qps", rate*float64(inLimit)/float64(len(latMs)), "1/s")
	res.set("cases_per_s", recRate, "1/s")
	res.set("peak_rss_mib", rss, "MiB")
	sorted := append([]float64(nil), latMs...)
	sort.Float64s(sorted)
	logf("scale-firsttouch: query latencies (ms, sorted): %.0f", sorted)
	logf("scale-firsttouch: setup %v; %d first-touch queries in %v at %d workers: p50 %.0f ms, p%.1f %.0f ms, %d recovery answers",
		setups, len(latMs), elapsed.Round(time.Millisecond), e.procs, quantile(latMs, 0.5),
		100*tailQuantile(len(latMs)), quantile(latMs, tailQuantile(len(latMs))), recoveries)
	return res, nil
}
