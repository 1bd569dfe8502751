package main

import (
	"bufio"
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/fcp"
	"repro/internal/graph"
	"repro/internal/mrc"
	"repro/internal/routing"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// This file measures each layer from outside: it times calls into the
// layers' public functions from the benchmark's own code. The program
// under test is not instrumented.

// ---------------------------------------------------------------
// Layer replay: the serving path's stages, one public call each.

// convEntry mirrors the serving layer's cached converged state.
type convEntry struct {
	sc    *failure.Scenario
	lv    *routing.LocalView
	post  *routing.Tables
	truth map[graph.NodeID]*spt.Tree
	sess  map[[2]int]*sessVal
}

type sessVal struct {
	sess *core.Session
	ok   bool
}

// layerReplay answers queries the way serve.Engine does — converged
// state cached per failure instance in an LRU of the engine's size,
// truth trees and phase-1 sessions memoized per entry — with a span
// around every call into a layer.
type layerReplay struct {
	tr     *tracer
	cap    int
	scheme string
	ll     *list.List
	m      map[string]*list.Element

	walkHops, walks int
	fcpSP, fcpRuns  int
}

type lruItem struct {
	key string
	en  *convEntry
}

func newLayerReplay(tr *tracer, capacity int, scheme string) *layerReplay {
	return &layerReplay{tr: tr, cap: capacity, scheme: scheme, ll: list.New(), m: map[string]*list.Element{}}
}

func (lr *layerReplay) lookup(key string) *convEntry {
	if el, ok := lr.m[key]; ok {
		lr.ll.MoveToFront(el)
		return el.Value.(*lruItem).en
	}
	return nil
}

func (lr *layerReplay) insert(key string, en *convEntry) {
	lr.m[key] = lr.ll.PushFront(&lruItem{key, en})
	for lr.ll.Len() > lr.cap {
		back := lr.ll.Back()
		lr.ll.Remove(back)
		delete(lr.m, back.Value.(*lruItem).key)
	}
}

// query replays one request; req numbers it in the trace.
func (lr *layerReplay) query(req int, w *sim.World, q serve.Query) error {
	tr := lr.tr
	root := tr.begin("request", -1, req)
	defer tr.end(root)
	key := q.Topo + "\x00" + q.Failure
	en := lr.lookup(key)
	if en == nil {
		var sc *failure.Scenario
		var err error
		tr.do("failure.parse_instance", root, req, func() {
			if sc, err = failure.ParseInstance(w.Topo, q.Failure); err == nil {
				_ = sc.Desc() // the engine keys its cache by the canonical descriptor
			}
		})
		if err != nil {
			return err
		}
		en = &convEntry{sc: sc, truth: map[graph.NodeID]*spt.Tree{}, sess: map[[2]int]*sessVal{}}
		tr.do("routing.local_view", root, req, func() { en.lv = routing.NewLocalView(w.Topo, sc) })
		tr.do("routing.recompute_tables", root, req, func() { en.post = routing.RecomputeTablesUnder(w.Topo, w.Tables, sc) })
		lr.insert(key, en)
	}
	src, dst := graph.NodeID(q.Src), graph.NodeID(q.Dst)
	if en.sc.NodeDown(src) {
		return nil
	}
	var nh graph.NodeID
	var link graph.LinkID
	var ok bool
	tr.do("routing.dest_tree", root, req, func() {
		w.Tables.DestTree(dst)
		nh, link, ok = w.Tables.NextHop(src, dst)
	})
	if !ok {
		return nil
	}
	recoverable := false
	if !en.sc.NodeDown(dst) {
		tr.do("routing.dest_tree", root, req, func() {
			en.post.DestTree(dst)
			_, recoverable = en.post.Dist(src, dst)
		})
	}
	if !en.lv.NeighborUnreachable(src, link) {
		tr.do("routing.path_fails", root, req, func() { _, _ = w.Tables.PathFails(src, dst, en.sc) })
		return nil
	}
	c := &sim.Case{Scenario: en.sc, LV: en.lv, Initiator: src, Dst: dst, NextHop: nh, Trigger: link, Recoverable: recoverable}
	truth := en.truth[src]
	if truth == nil {
		var clean *spt.Tree
		tr.do("spt.clean_tree", root, req, func() { clean = w.RTR.CleanTree(src) })
		tr.do("spt.truth_tree", root, req, func() { truth = spt.Recompute(w.Topo.G, clean, graph.Nothing, en.sc) })
		en.truth[src] = truth
	}
	if lr.scheme == serve.SchemeAll || lr.scheme == serve.SchemeRTR {
		k := [2]int{int(src), int(link)}
		sv := en.sess[k]
		if sv == nil {
			sv = &sessVal{}
			var col *core.CollectResult
			var err error
			tr.do("core.collect", root, req, func() {
				if sv.sess, err = w.RTR.NewSession(en.lv, src); err == nil {
					col, err = sv.sess.Collect(link)
				}
			})
			if err == nil {
				lr.walkHops += col.Walk.Hops()
				lr.walks++
				tr.do("core.prepare", root, req, sv.sess.Prepare)
				sv.ok = true
			}
			en.sess[k] = sv
		}
		if sv.ok {
			var rt core.Route
			var found bool
			tr.do("core.recovery_path", root, req, func() { rt, found = sv.sess.RecoveryPath(dst) })
			if found {
				tr.do("core.forward", root, req, func() { sv.sess.ForwardSourceRouted(rt) })
			}
		}
	}
	if lr.scheme == serve.SchemeAll || lr.scheme == serve.SchemeFCP {
		var r sim.FCPResult
		var err error
		tr.do("fcp.run", root, req, func() { r, err = sim.RunFCP(w, c, truth) })
		if err != nil {
			return err
		}
		lr.fcpSP += r.SPCalcs
		lr.fcpRuns++
	}
	if lr.scheme == serve.SchemeAll || lr.scheme == serve.SchemeMRC {
		var err error
		tr.do("mrc.run", root, req, func() { _, err = sim.RunMRC(w, c, truth) })
		if err != nil {
			return err
		}
	}
	return nil
}

// replayLayers runs the query sequence through a layer replay and
// returns its tracer (traced or not) and the replay's counters.
func replayLayers(traced bool, worlds map[string]*sim.World, qs []serve.Query, capacity int, scheme string) (*tracer, *layerReplay, time.Duration, error) {
	tr := newTracer(traced)
	lr := newLayerReplay(tr, capacity, scheme)
	t0 := time.Now()
	for i, q := range qs {
		if err := lr.query(i, worlds[q.Topo], q); err != nil {
			return nil, nil, 0, fmt.Errorf("layer replay of query %d: %w", i, err)
		}
	}
	return tr, lr, time.Since(t0), nil
}

// layerMetrics sets the layer replay's per-layer metrics, each only
// when the replay exercised that layer (a scale replay serving rtr
// runs no FCP or MRC; those come from the Table II probes).
func layerMetrics(res *result, st spanStats, lr *layerReplay) {
	for _, m := range []struct {
		metric, span string
		unitNs       float64
	}{
		{"failure.parse_instance_us", "failure.parse_instance", 1e3},
		{"routing.local_view_us", "routing.local_view", 1e3},
		{"routing.recompute_tables_us", "routing.recompute_tables", 1e3},
		{"routing.dest_tree_ms", "routing.dest_tree", 1e6},
		{"spt.truth_tree_us", "spt.truth_tree", 1e3},
		{"spt.clean_tree_ms", "spt.clean_tree", 1e6},
		{"core.collect_us", "core.collect", 1e3},
		{"core.prepare_us", "core.prepare", 1e3},
		{"core.recovery_path_us", "core.recovery_path", 1e3},
		{"core.forward_us", "core.forward", 1e3},
		{"fcp.run_us", "fcp.run", 1e3},
		{"mrc.run_us", "mrc.run", 1e3},
	} {
		if st.count[m.span] > 0 {
			unit := "us"
			if m.unitNs == 1e6 {
				unit = "ms"
			}
			res.set(m.metric, st.meanSelf(m.span, m.unitNs), unit)
		}
	}
	if lr.walks > 0 {
		res.set("core.walk_hops", ratio(lr.walkHops, lr.walks), "count")
	}
	if lr.fcpRuns > 0 {
		res.set("fcp.sp_calcs", ratio(lr.fcpSP, lr.fcpRuns), "count")
	}
	res.set("trace.coverage", st.coverage, "ratio")
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceLayers runs the layer replay untraced and then traced, each on
// fresh worlds from worlds() so both passes pay the same first-touch
// work inside the worlds (lazy tables, clean trees), writes the spans,
// and sets the layer metrics plus trace.overhead.
func traceLayers(e env, name string, res *result, worlds func() (map[string]*sim.World, error), qs []serve.Query, capacity int, scheme string) error {
	w1, err := worlds()
	if err != nil {
		return err
	}
	_, _, plain, err := replayLayers(false, w1, qs, capacity, scheme)
	if err != nil {
		return err
	}
	w1 = nil
	w2, err := worlds()
	if err != nil {
		return err
	}
	tr, lr, traced, err := replayLayers(true, w2, qs, capacity, scheme)
	if err != nil {
		return err
	}
	st := summarize(tr.spans)
	layerMetrics(res, st, lr)
	res.set("trace.overhead", traced.Seconds()/plain.Seconds(), "ratio")
	path := fmt.Sprintf("%s/trace-%s-seed%d.jsonl", e.binDir, name, e.seed)
	if err := writeSpans(path, tr.spans); err != nil {
		return err
	}
	logf("%s: %d spans over %d requests written to %s; coverage %.3f, overhead %.3f",
		name, len(tr.spans), len(qs), path, st.coverage, traced.Seconds()/plain.Seconds())
	return nil
}

// ---------------------------------------------------------------
// Engine replay: serve.Engine.Query in process, for the serve layer's
// hit/miss split, allocation and lock-wait counts.

type engineStats struct {
	hitUs, missUs       []float64
	queries             int
	hitRatio, evictions float64
	allocs, bytes       float64 // per query
	mutexWaitUs         float64 // per query
	gcShare             float64
	qps                 float64
	resps               []*serve.Response // a sample, for encode timing
}

var rtMetricNames = []string{
	"/sync/mutex/wait/total:seconds",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntimeMetrics() []float64 {
	s := make([]metrics.Sample, len(rtMetricNames))
	for i, n := range rtMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// replayEngine answers prime untimed, then qs with workers goroutines
// at the given GOMAXPROCS, on a fresh engine from mk.
func replayEngine(mk func() (*serve.Engine, error), prime, qs []serve.Query, workers, procs int) (*engineStats, error) {
	old := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(old)
	eng, err := mk()
	if err != nil {
		return nil, err
	}
	for _, q := range prime {
		if _, err := eng.Query(q); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	st0 := eng.Stats()
	rt0 := readRuntimeMetrics()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	es := &engineStats{queries: len(qs)}
	var (
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	hit := make([][]float64, workers)
	miss := make([][]float64, workers)
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				q0 := time.Now()
				resp, err := eng.Query(qs[i])
				d := float64(time.Since(q0)) / 1e3
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
				if resp.CacheHit {
					hit[k] = append(hit[k], d)
				} else {
					miss[k] = append(miss[k], d)
				}
				if i%16 == 0 {
					mu.Lock()
					es.resps = append(es.resps, resp)
					mu.Unlock()
				}
			}
		}(k)
	}
	wg.Wait()
	wall := time.Since(t0)
	if firstErr != nil {
		return nil, firstErr
	}
	runtime.ReadMemStats(&ms1)
	// The runtime folds CPU time into the /cpu/classes metrics at GC
	// boundaries; one forced cycle brings them up to date (and charges
	// that one cycle to the window).
	runtime.GC()
	rt1 := readRuntimeMetrics()
	st1 := eng.Stats()
	for k := 0; k < workers; k++ {
		es.hitUs = append(es.hitUs, hit[k]...)
		es.missUs = append(es.missUs, miss[k]...)
	}
	n := float64(len(qs))
	es.hitRatio = serve.HitRate(st0, st1)
	es.evictions = float64(st1.Evictions-st0.Evictions) / n
	es.allocs = float64(ms1.Mallocs-ms0.Mallocs) / n
	es.bytes = float64(ms1.TotalAlloc-ms0.TotalAlloc) / n
	es.mutexWaitUs = (rt1[0] - rt0[0]) * 1e6 / n
	if cpu := rt1[2] - rt0[2]; cpu > 0 {
		es.gcShare = (rt1[1] - rt0[1]) / cpu
	}
	es.qps = n / wall.Seconds()
	return es, nil
}

// traceEngine replays at GOMAXPROCS = procs and 1 and sets the serve
// layer's metrics; encode timing uses the sampled responses.
func traceEngine(e env, res *result, mk func() (*serve.Engine, error), prime, qs, qs1 []serve.Query) error {
	es, err := replayEngine(mk, prime, qs, e.procs, e.procs)
	if err != nil {
		return err
	}
	es1, err := replayEngine(mk, prime, qs1, 1, 1)
	if err != nil {
		return err
	}
	res.set("serve.query_hit_us", meanOr0(es.hitUs), "us")
	res.set("serve.query_miss_us", meanOr0(es.missUs), "us")
	res.set("serve.hit_ratio", es.hitRatio, "ratio")
	res.set("serve.evictions_per_query", es.evictions, "count")
	res.set("serve.allocs_per_query", es.allocs, "count")
	res.set("serve.bytes_per_query", es.bytes, "bytes")
	res.set("serve.mutex_wait_us_per_query", es.mutexWaitUs, "us")
	res.set("proc.gc_cpu_share", es.gcShare, "ratio")
	res.set("proc.gc_cpu_share.gmp1", es1.gcShare, "ratio")
	res.set("serve.scaling_efficiency", es.qps/(float64(e.procs)*es1.qps), "ratio")

	var buf bytes.Buffer
	var encNs []float64
	for _, r := range es.resps {
		buf.Reset()
		t0 := time.Now()
		if err := json.NewEncoder(&buf).Encode(r); err != nil {
			return err
		}
		encNs = append(encNs, float64(time.Since(t0)))
	}
	res.set("http.encode_us", meanOr0(encNs)/1e3, "us")
	logf("engine replay: %d queries at GOMAXPROCS %d: %.0f q/s, hit %.1f µs (%d) miss %.1f µs (%d), hit ratio %.3f; at GOMAXPROCS 1: %.0f q/s; LRU and other sync.Mutex wait %.4f µs per query at GOMAXPROCS %d, %.4f at 1",
		es.queries, e.procs, es.qps, meanOr0(es.hitUs), len(es.hitUs), meanOr0(es.missUs), len(es.missUs), es.hitRatio,
		es1.qps, es.mutexWaitUs, e.procs, es1.mutexWaitUs)
	return nil
}

func meanOr0(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ---------------------------------------------------------------
// HTTP replay: serve.Handler behind an in-process loopback server.
// The client span covers the round trip; the handler span, opened by
// a wrapper around serve.Handler, is its child, so the client span's
// self time is transport + client work.

func traceHTTP(res *result, eng *serve.Engine, qs []serve.Query) error {
	tr := newTracer(true)
	inner := eng.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		id := tr.begin("http.handler", parent, req)
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	defer func() {
		_ = srv.Shutdown(context.Background())
		<-done
	}()
	addr := ln.Addr().String()
	c, err := dialRaw(addr)
	if err != nil {
		return err
	}
	defer c.close()
	var body bytes.Buffer
	var bytesTotal int
	for i, q := range qs {
		id := tr.begin("http.request", -1, i)
		pq := "/recover?topo=" + q.Topo + "&failure=" + url.QueryEscape(q.Failure) +
			"&src=" + strconv.Itoa(q.Src) + "&dst=" + strconv.Itoa(q.Dst)
		if q.Scheme != "" {
			pq += "&scheme=" + q.Scheme
		}
		req := []byte("GET " + pq + " HTTP/1.1\r\nHost: " + addr +
			"\r\nX-Bench-Req: " + strconv.Itoa(i) + "\r\nX-Bench-Span: " + strconv.Itoa(id) + "\r\n\r\n")
		status, err := c.do(req, &body)
		tr.end(id)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("http replay request %d: status %d, %v: %s", i, status, err, body.Bytes())
		}
		bytesTotal += body.Len()
	}
	st := summarize(tr.spans)
	res.set("http.roundtrip_us", st.meanSelf("http.request", 1e3), "us")
	res.set("http.handler_us", st.meanSelf("http.handler", 1e3), "us")
	res.set("http.resp_bytes", ratio(bytesTotal, len(qs)), "bytes")
	return nil
}

// ---------------------------------------------------------------
// Set-up stages: what a world build is made of, one constructor at a
// time, plus the snapshot codec.

func traceWorldStages(res *result, topos []*topology.Topology, scale bool) error {
	var readMs, ciMs, tabMs, coreMs, fcpMs, mrcMs, worldMs []float64
	for _, topo := range topos {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := topology.WriteBinary(bw, topo, nil); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := topology.ReadBinary(bufio.NewReader(&buf), nil); err != nil {
			return err
		}
		readMs = append(readMs, msSince(t0))

		t0 = time.Now()
		ci := topology.BuildCrossIndex(topo)
		ciMs = append(ciMs, msSince(t0))
		t0 = time.Now()
		var tables *routing.Tables
		if scale {
			tables = routing.ComputeTablesLazy(topo, graph.Nothing)
		} else {
			tables = routing.ComputeTables(topo)
		}
		tabMs = append(tabMs, msSince(t0))
		t0 = time.Now()
		r := core.New(topo, ci, core.WithPhase2(spt.EngineDijkstra))
		coreMs = append(coreMs, msSince(t0))
		t0 = time.Now()
		f := fcp.New(topo)
		f.UseCleanTrees(r.CleanTree)
		f.UsePhase2(spt.EngineDijkstra, r.Heuristic())
		fcpMs = append(fcpMs, msSince(t0))
		if !scale {
			t0 = time.Now()
			if _, err := mrc.NewWarmPhase2(topo, 0, tables, spt.EngineDijkstra, r.Heuristic()); err != nil {
				return err
			}
			mrcMs = append(mrcMs, msSince(t0))
		}
		t0 = time.Now()
		if _, err := sim.NewWorldFromConfig(topo, sim.WorldConfig{}); err != nil {
			return err
		}
		worldMs = append(worldMs, msSince(t0))
		logf("set-up stages %s: read %.2f ms, cross index %.2f, tables %.2f, core %.3f, fcp %.3f, world %.2f ms",
			topo.Name, readMs[len(readMs)-1], ciMs[len(ciMs)-1], tabMs[len(tabMs)-1], coreMs[len(coreMs)-1],
			fcpMs[len(fcpMs)-1], worldMs[len(worldMs)-1])
	}
	res.set("topology.read_binary_ms", meanOr0(readMs), "ms")
	res.set("topology.cross_index_ms", meanOr0(ciMs), "ms")
	res.set("routing.compute_tables_ms", meanOr0(tabMs), "ms")
	res.set("core.new_ms", meanOr0(coreMs), "ms")
	res.set("fcp.new_ms", meanOr0(fcpMs), "ms")
	if len(mrcMs) > 0 { // scale-mode worlds carry no MRC
		res.set("mrc.new_warm_ms", meanOr0(mrcMs), "ms")
	}
	res.set("sim.world_build_ms", meanOr0(worldMs), "ms")
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

// traceSPT times spt.Compute + spt.ComputeReverse over a seeded root
// sample of one graph.
func traceSPT(res *result, g *graph.Graph, rng *rand.Rand, roots int) {
	var ms []float64
	for k := 0; k < roots; k++ {
		root := graph.NodeID(rng.Intn(g.NumNodes()))
		t0 := time.Now()
		spt.Compute(g, root, graph.Nothing)
		spt.ComputeReverse(g, root, graph.Nothing)
		ms = append(ms, msSince(t0))
	}
	res.set("spt.compute_ms", meanOr0(ms), "ms")
}

// ---------------------------------------------------------------
// Sim layer: case collection and the batched runner over scenarios.

// traceSim collects the cases of each world's scenarios and runs the
// batched runner over them. It returns, per world, the recoverable
// cases it ran.
func traceSim(res *result, worlds []*sim.World, scenarios [][]*failure.Scenario) [][]*sim.Case {
	var collectMs, recMs, irrMs []float64
	ran := make([][]*sim.Case, len(worlds))
	var cases, groups int
	var allocs uint64
	var ms0, ms1 runtime.MemStats
	for i, w := range worlds {
		for _, sc := range scenarios[i] {
			t0 := time.Now()
			rec, irr := sim.CasesFromScenario(w, sc)
			collectMs = append(collectMs, msSince(t0))
			ran[i] = append(ran[i], rec...)
			groups += countGroups(rec) + countGroups(irr)
			cases += len(rec) + len(irr)
			runtime.ReadMemStats(&ms0)
			t0 = time.Now()
			sim.RunAllN(w, rec, 1)
			recMs = append(recMs, msSince(t0))
			t0 = time.Now()
			sim.RunAllN(w, irr, 1)
			irrMs = append(irrMs, msSince(t0))
			runtime.ReadMemStats(&ms1)
			allocs += ms1.Mallocs - ms0.Mallocs
		}
	}
	res.set("sim.collect_cases_ms", meanOr0(collectMs), "ms")
	res.set("sim.runall_rec_ms", meanOr0(recMs), "ms")
	res.set("sim.runall_irr_ms", meanOr0(irrMs), "ms")
	res.set("sim.cases_per_group", ratio(cases, groups), "count")
	res.set("sim.allocs_per_case", ratio(int(allocs), cases), "count")
	return ran
}

// traceProtocols times the FCP and MRC runners on up to perWorld of
// each world's cases, grading against truth trees built as the harness
// builds them. It fills these metrics only where the layer replay left
// them unset.
func traceProtocols(res *result, worlds []*sim.World, cases [][]*sim.Case, perWorld int) error {
	var fcpUs, mrcUs []float64
	sp := 0
	for i, w := range worlds {
		if err := timeProtocols(w, cases[i][:min(perWorld, len(cases[i]))], &fcpUs, &mrcUs, &sp); err != nil {
			return err
		}
	}
	res.setDefault("fcp.run_us", meanOr0(fcpUs), "us")
	res.setDefault("fcp.sp_calcs", ratio(sp, len(fcpUs)), "count")
	res.setDefault("mrc.run_us", meanOr0(mrcUs), "us")
	return nil
}

func timeProtocols(w *sim.World, cases []*sim.Case, fcpUs, mrcUs *[]float64, sp *int) error {
	for _, c := range cases {
		truth := spt.Recompute(w.Topo.G, w.RTR.CleanTree(c.Initiator), graph.Nothing, c.Scenario)
		t0 := time.Now()
		r, err := sim.RunFCP(w, c, truth)
		if err != nil {
			return err
		}
		*fcpUs = append(*fcpUs, msSince(t0)*1e3)
		*sp += r.SPCalcs
		t0 = time.Now()
		if _, err := sim.RunMRC(w, c, truth); err != nil {
			return err
		}
		*mrcUs = append(*mrcUs, msSince(t0)*1e3)
	}
	return nil
}

// countGroups counts the (scenario, initiator, trigger) groups the
// batched runner shares one phase-1 walk across.
func countGroups(cases []*sim.Case) int {
	type key struct {
		lv   *routing.LocalView
		init graph.NodeID
		trig graph.LinkID
	}
	seen := map[key]bool{}
	for _, c := range cases {
		seen[key{c.LV, c.Initiator, c.Trigger}] = true
	}
	return len(seen)
}

// ---------------------------------------------------------------
// Sweep engine and worker-pool scaling: the spec once serially at
// GOMAXPROCS 1 and once with procs workers at GOMAXPROCS procs, after
// an untimed pass that leaves the worlds' lazy state (clean trees,
// lazily built tables) equally warm for both.

func traceSweepEngine(e env, res *result, spec sweep.Spec, worlds map[string]*sim.World) error {
	run := func(workers int) (*sweepRun, float64, error) {
		old := runtime.GOMAXPROCS(workers)
		defer runtime.GOMAXPROCS(old)
		r, err := runSweepOnce(spec, worlds, workers)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		if _, err := mergedDigest(r.res, worlds); err != nil {
			return nil, 0, err
		}
		return r, msSince(t0), nil
	}
	if _, _, err := run(e.procs); err != nil {
		return err
	}
	r1, _, err := run(1)
	if err != nil {
		return err
	}
	rp, mergeMs, err := run(e.procs)
	if err != nil {
		return err
	}
	if r1.digest != rp.digest {
		return fmt.Errorf("sweep digest differs between 1 and %d workers", e.procs)
	}
	busy := 0.0
	for _, ms := range rp.shardMs {
		busy += ms
	}
	res.set("sweep.shard_ms_p50", quantile(rp.shardMs, 0.5), "ms")
	res.set("sweep.shard_ms_max", quantile(rp.shardMs, 1), "ms")
	res.set("sweep.worker_busy_ratio", busy/(float64(e.procs)*float64(rp.elapsed)/1e6), "ratio")
	res.set("sweep.merge_ms", mergeMs, "ms")
	res.set("par.scaling_efficiency", r1.elapsed.Seconds()/(float64(e.procs)*rp.elapsed.Seconds()), "ratio")
	logf("sweep engine: %d cases, %d shards: %v serial at GOMAXPROCS 1, %v at %d workers",
		rp.cases, len(rp.shardMs), r1.elapsed.Round(time.Millisecond), rp.elapsed.Round(time.Millisecond), e.procs)
	return nil
}

// ---------------------------------------------------------------
// Load generator self-check: the open-loop pacer against a no-op
// sender, per rung rate, for workloads without a daemon ladder.

func traceLoadgen(res *result, rates []float64, dur time.Duration, send sendFunc) []*rung {
	var rungs []*rung
	for i, rate := range rates {
		r := openLoop(rate, dur, 2, 0, send)
		rungs = append(rungs, r)
		res.set(fmt.Sprintf("loadgen.send_lag_p99_us.rung%d", i+1), quantile(r.LagUs, 0.99), "us")
	}
	return rungs
}
