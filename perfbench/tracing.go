package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/failure"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// Traced runs. Each replays its workload's generated inputs through
// the layers' public functions with spans around every call and
// reports per-layer metrics; end-to-end numbers come from the untraced
// runs only.

// tableIIWorlds builds fresh Table II worlds from a synthesis seed.
func tableIIWorlds(topoSeed int64) func() (map[string]*sim.World, error) {
	return func() (map[string]*sim.World, error) {
		return buildWorlds(sweep.Spec{BaseSeed: topoSeed, Topologies: topology.ASNames()})
	}
}

func worldList(worlds map[string]*sim.World) ([]*sim.World, []*topology.Topology) {
	var ws []*sim.World
	var ts []*topology.Topology
	for _, name := range topology.ASNames() {
		if w := worlds[name]; w != nil {
			ws = append(ws, w)
			ts = append(ts, w.Topo)
		}
	}
	return ws, ts
}

// largestGraphWorld returns the world with the most nodes.
func largestGraphWorld(ws []*sim.World) *sim.World {
	best := ws[0]
	for _, w := range ws {
		if w.Topo.G.NumNodes() > best.Topo.G.NumNodes() {
			best = w
		}
	}
	return best
}

// miniSweepSpec is the sweep the Table II traced runs time the sweep
// engine and worker pool on: an eighth of the paper sweep.
func miniSweepSpec(wseed int64) sweep.Spec {
	s := sweepSpec(wseed)
	s.Recoverable, s.Irrecoverable, s.BlockCases = sweepCases/8, sweepCases/8, sweepCases/16
	return s
}

// traceTableII runs the probes every workload shares on the Table II
// worlds: set-up stages, spt, the sim layer over the given scenarios,
// FCP and MRC on their recoverable cases (where the layer replay did
// not run them), and the sweep engine on the mini sweep.
// descs holds failure descriptors per topology name.
func traceTableII(e env, res *result, name string, descs map[string][]string) error {
	worlds, err := tableIIWorlds(topoSeed)()
	if err != nil {
		return err
	}
	ws, ts := worldList(worlds)
	scenarios := make([][]*failure.Scenario, len(ws))
	for i, w := range ws {
		for _, d := range descs[w.Topo.Name] {
			sc, err := failure.ParseInstance(w.Topo, d)
			if err != nil {
				return err
			}
			scenarios[i] = append(scenarios[i], sc)
		}
	}
	if err := traceWorldStages(res, ts, false); err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, name, "trace-spt")))
	traceSPT(res, largestGraphWorld(ws).Topo.G, rng, 64)
	ran := traceSim(res, ws, scenarios)
	if err := traceProtocols(res, ws, ran, 16); err != nil {
		return err
	}
	spec := miniSweepSpec(e.seed)
	sw, err := buildWorlds(spec)
	if err != nil {
		return err
	}
	return traceSweepEngine(e, res, spec, sw)
}

func traceServe(e env, spec serveSpec) (*result, error) {
	res := newResult()
	_, worlds, err := newColdEngine()
	if err != nil {
		return nil, err
	}
	in := genServeInputs(spec, e.seed, worlds)

	// The daemon's open-loop ladder, short rungs, for the generator's
	// own lag per rung.
	d, err := spawnDaemon(filepath.Join(e.binDir, "rtrsimd"), "-cache", strconv.Itoa(spec.cache))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, spec.name, "sample")))
	load, err := newHTTPLoad(in, d.addr, e.procs, spec.checkEvery, rng)
	if err != nil {
		d.stop()
		return nil, err
	}
	closedLoop(e.procs, e.window(0.1), 0, load.send)
	next := 0
	for i, rate := range spec.ladder {
		r := openLoop(rate, e.window(0.1), e.procs, next, load.send)
		next += r.Attempted
		res.set(fmt.Sprintf("loadgen.send_lag_p99_us.rung%d", i+1), quantile(r.LagUs, 0.99), "us")
		if rate == spec.opRate {
			res.set("loadgen.send_lag_p50_us", quantile(r.LagUs, 0.5), "us")
			res.set("loadgen.send_lag_p99_us", quantile(r.LagUs, 0.99), "us")
		}
	}
	load.close()
	d.stop()

	// The request sequence the replays share: the plan's head, plus
	// the untimed warm-up the end-to-end run sends first.
	n := 4000
	if spec.prime {
		n = 20000 // hits are cheap; a longer replay steadies the numbers
	}
	var prime, qs []serve.Query
	if spec.prime {
		for ii, inst := range in.insts {
			for k := range inst.Pairs {
				p := inst.Pairs[k]
				prime = append(prime, serve.Query{Topo: in.insts[ii].Topo, Failure: inst.Desc, Src: p.Src, Dst: p.Dst})
			}
		}
	} else {
		for i := planLen - 2000; i < planLen; i++ {
			prime = append(prime, in.query(i))
		}
	}
	for i := 0; i < n; i++ {
		qs = append(qs, in.query(i))
	}
	if err := traceLayers(e, spec.name, res, tableIIWorlds(topoSeed), qs, spec.cache, serve.SchemeAll); err != nil {
		return nil, err
	}
	mk := func() (*serve.Engine, error) {
		return serve.New(serve.Config{Seed: topoSeed, CacheEntries: spec.cache})
	}
	// Warm priming is part of the replay (its first touches are the
	// workload's only misses); churn's warm-up only sets the LRU's
	// steady state and stays untimed.
	engPrime, engQs := prime, qs
	if spec.prime {
		engPrime, engQs = nil, append(append([]serve.Query(nil), prime...), qs...)
	}
	if err := traceEngine(e, res, mk, engPrime, engQs, engQs[:len(engQs)/2]); err != nil {
		return nil, err
	}
	eng, err := mk()
	if err != nil {
		return nil, err
	}
	for _, q := range prime {
		if _, err := eng.Query(q); err != nil {
			return nil, err
		}
	}
	if err := traceHTTP(res, eng, qs[:n/2]); err != nil {
		return nil, err
	}

	// The sim layer over the first instances of each topology.
	descs := map[string][]string{}
	for _, inst := range in.insts {
		if len(descs[inst.Topo]) < 4 {
			descs[inst.Topo] = append(descs[inst.Topo], inst.Desc)
		}
	}
	if err := traceTableII(e, res, spec.name, descs); err != nil {
		return nil, err
	}
	res.Attempted = len(qs)
	return res, nil
}

// sweepQueries turns the first case shard of each topology into
// serving queries (failure descriptor, initiator, destination), every
// stride-th case.
func sweepQueries(spec sweep.Spec, worlds map[string]*sim.World, stride int) []serve.Query {
	gen := failure.Default()
	var qs []serve.Query
	firsts := map[string]bool{}
	for _, sh := range spec.Shards() {
		if sh.Kind != sweep.KindCases || firsts[sh.Topology] {
			continue
		}
		firsts[sh.Topology] = true
		rng := rand.New(rand.NewSource(sh.Seed(spec.BaseSeed)))
		rec, irr := sim.CollectBothG(worlds[sh.Topology], gen, rng, sh.Rec, sh.Irr)
		for i, c := range append(rec, irr...) {
			if i%stride == 0 {
				qs = append(qs, serve.Query{Topo: sh.Topology, Failure: c.Scenario.Desc(), Src: int(c.Initiator), Dst: int(c.Dst)})
			}
		}
	}
	return qs
}

func traceSweep(e env) (*result, error) {
	res := newResult()
	spec := sweepSpec(e.seed)
	worlds, err := buildWorlds(spec)
	if err != nil {
		return nil, err
	}
	noop := func(int, int) bool { return true }
	rungs := traceLoadgen(res, []float64{1000, 2000, 4000}, e.window(0.03), noop)
	res.set("loadgen.send_lag_p50_us", quantile(rungs[1].LagUs, 0.5), "us")
	res.set("loadgen.send_lag_p99_us", quantile(rungs[1].LagUs, 0.99), "us")

	qs := sweepQueries(spec, worlds, 4)
	if err := traceLayers(e, "sweep-paper", res, func() (map[string]*sim.World, error) { return buildWorlds(spec) }, qs, 64, serve.SchemeAll); err != nil {
		return nil, err
	}
	mk := func() (*serve.Engine, error) {
		return serve.New(serve.Config{Worlds: worlds, CacheEntries: 64})
	}
	if err := traceEngine(e, res, mk, nil, qs, qs[:len(qs)/2]); err != nil {
		return nil, err
	}
	eng, err := mk()
	if err != nil {
		return nil, err
	}
	if err := traceHTTP(res, eng, qs[:len(qs)/4]); err != nil {
		return nil, err
	}
	ws, ts := worldList(worlds)
	if err := traceWorldStages(res, ts, false); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, "sweep-paper", "trace-spt")))
	traceSPT(res, largestGraphWorld(ws).Topo.G, rng, 64)
	if err := traceShards(e, res, spec, worlds); err != nil {
		return nil, err
	}
	if err := traceSweepEngine(e, res, spec, worlds); err != nil {
		return nil, err
	}
	res.Attempted = len(qs)
	return res, nil
}

// traceShards replays the first case shard of each topology —
// collection, then the batched runner on the recoverable and the
// irrecoverable cases, each under a span inside a shard span — once
// untraced and once traced. It sets the sim layer's metrics and, since
// a shard is the sweep's unit of work, the sweep's trace.coverage and
// trace.overhead.
func traceShards(e env, res *result, spec sweep.Spec, worlds map[string]*sim.World) error {
	gen := failure.Default()
	var cases, groups int
	var allocs uint64
	pass := func(tr *tracer) time.Duration {
		firsts := map[string]bool{}
		req := 0
		cases, groups, allocs = 0, 0, 0
		var ms0, ms1 runtime.MemStats
		t0 := time.Now()
		for _, sh := range spec.Shards() {
			if sh.Kind != sweep.KindCases || firsts[sh.Topology] {
				continue
			}
			firsts[sh.Topology] = true
			w := worlds[sh.Topology]
			root := tr.begin("shard", -1, req)
			rng := rand.New(rand.NewSource(sh.Seed(spec.BaseSeed)))
			var rec, irr []*sim.Case
			tr.do("sim.collect_cases", root, req, func() { rec, irr = sim.CollectBothG(w, gen, rng, sh.Rec, sh.Irr) })
			runtime.ReadMemStats(&ms0)
			tr.do("sim.runall_rec", root, req, func() { sim.RunAllN(w, rec, 1) })
			tr.do("sim.runall_irr", root, req, func() { sim.RunAllN(w, irr, 1) })
			runtime.ReadMemStats(&ms1)
			tr.end(root)
			allocs += ms1.Mallocs - ms0.Mallocs
			cases += len(rec) + len(irr)
			groups += countGroups(rec) + countGroups(irr)
			req++
		}
		return time.Since(t0)
	}
	plain := pass(newTracer(false))
	tr := newTracer(true)
	traced := pass(tr)
	st := summarize(tr.spans)
	res.set("sim.collect_cases_ms", st.meanSelf("sim.collect_cases", 1e6), "ms")
	res.set("sim.runall_rec_ms", st.meanSelf("sim.runall_rec", 1e6), "ms")
	res.set("sim.runall_irr_ms", st.meanSelf("sim.runall_irr", 1e6), "ms")
	res.set("sim.cases_per_group", ratio(cases, groups), "count")
	res.set("sim.allocs_per_case", ratio(int(allocs), cases), "count")
	res.set("trace.coverage", st.coverage, "ratio")
	res.set("trace.overhead", traced.Seconds()/plain.Seconds(), "ratio")
	path := fmt.Sprintf("%s/trace-sweep-paper-shards-seed%d.jsonl", e.binDir, e.seed)
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	logf("sweep-paper: shard replay: %d spans written to %s; coverage %.3f, overhead %.3f",
		len(tr.spans), path, st.coverage, traced.Seconds()/plain.Seconds())
	return nil
}

func traceScale(e env) (*result, error) {
	res := newResult()
	snap, err := scaleSnapshot()
	if err != nil {
		return nil, err
	}
	fresh := func() (*sim.World, error) { return loadScaleWorld(snap) }
	w, err := fresh()
	if err != nil {
		return nil, err
	}
	qs := genScaleQueries(w, e.seed, 6)
	noop := func(int, int) bool { return true }
	rungs := traceLoadgen(res, []float64{1000, 2000, 4000}, e.window(0.03), noop)
	res.set("loadgen.send_lag_p50_us", quantile(rungs[1].LagUs, 0.5), "us")
	res.set("loadgen.send_lag_p99_us", quantile(rungs[1].LagUs, 0.99), "us")

	// The sim layer, FCP, MRC and the sweep engine are not on this
	// workload's path (it serves rtr in process), and FCP on a
	// 100k-node world can recompute for minutes on one case: they are
	// timed on the Table II worlds. Set-up stages and spt are then
	// re-timed on the 100k-node world.
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, "scale-firsttouch", "trace")))
	descs := map[string][]string{}
	for _, name := range topology.ASNames() {
		topo := topology.GenerateAS(name, topoSeed)
		for k := 0; k < 2; k++ {
			descs[name] = append(descs[name], failure.RandomScenario(topo, rng).Desc())
		}
	}
	if err := traceTableII(e, res, "scale-firsttouch", descs); err != nil {
		return nil, err
	}
	traceSPT(res, w.Topo.G, rng, 4)
	if err := traceWorldStages(res, []*topology.Topology{w.Topo}, true); err != nil {
		return nil, err
	}
	w = nil

	// The layer replay serves rtr, as the workload does.
	worlds := func() (map[string]*sim.World, error) {
		w, err := fresh()
		return map[string]*sim.World{scaleName: w}, err
	}
	if err := traceLayers(e, "scale-firsttouch", res, worlds, qs, scaleCache, serve.SchemeRTR); err != nil {
		return nil, err
	}
	var last *serve.Engine
	mk := func() (*serve.Engine, error) {
		w, err := fresh()
		if err != nil {
			return nil, err
		}
		last, err = serve.New(serve.Config{Worlds: map[string]*sim.World{scaleName: w}, CacheEntries: scaleCache, DefaultScheme: serve.SchemeRTR})
		return last, err
	}
	// Distinct first touches, then the last three again (cache hits).
	engQs := append(append([]serve.Query(nil), qs...), qs[len(qs)-3:]...)
	engQs1 := append(append([]serve.Query(nil), qs[:3]...), qs[:3]...)
	if err := traceEngine(e, res, mk, nil, engQs, engQs1); err != nil {
		return nil, err
	}
	// HTTP on warm entries: the last engine's cache holds qs[:3].
	var hot []serve.Query
	for i := 0; i < 200; i++ {
		hot = append(hot, qs[i%3])
	}
	t0 := time.Now()
	if err := traceHTTP(res, last, hot); err != nil {
		return nil, err
	}
	logf("scale-firsttouch: http replay of %d warm queries in %v", len(hot), time.Since(t0).Round(time.Millisecond))
	res.Attempted = len(qs)
	return res, nil
}
