package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/url"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/failure"
	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// serveSpec fixes one daemon traffic mix.
type serveSpec struct {
	name string
	// perTopo failure instances per Table II topology, each with
	// recPairs pairs drawn from its recovery cases and randPairs
	// uniformly random pairs.
	perTopo, recPairs, randPairs int
	// zipfS > 0 draws instances by Zipf(s) popularity over a seeded
	// permutation; 0 draws them uniformly.
	zipfS float64
	cache int
	// prime sends every (instance, pair) once before timing, so every
	// timed lookup hits; otherwise an untimed warm-up of the same mix
	// brings the LRU to its steady state.
	prime bool
	// ladder is the open-loop rate ladder (requests/s); opRate is the
	// rung whose latencies are reported; limitMs is the p99 limit.
	ladder  []float64
	opRate  float64
	limitMs float64
	// checkEvery keeps one answer in checkEvery for the output check.
	checkEvery int
}

var (
	warmSpec = serveSpec{
		name: "serve-warm", perTopo: 8, recPairs: 24, randPairs: 8,
		cache: 64, prime: true,
		ladder: []float64{3000, 6000, 12000}, opRate: 6000, limitMs: 5,
		checkEvery: 211,
	}
	churnSpec = serveSpec{
		name: "serve-churn", perTopo: 256, recPairs: 3, randPairs: 1,
		zipfS: 0.9, cache: 64,
		ladder: []float64{500, 1000, 2000}, opRate: 1000, limitMs: 10,
		checkEvery: 41,
	}
)

// topoSeed is the Table II synthesis seed: the daemon's default, so
// the daemon and the benchmark talk about the same graphs.
const topoSeed = 1

// planLen is the length of the generated request sequence; runs that
// send more requests cycle through it.
const planLen = 1 << 17

type pair struct{ Src, Dst int }

type instance struct {
	Topo  string
	Desc  string
	Pairs []pair
}

// reqRef names one request: an instance and one of its pairs.
type reqRef struct{ Inst, Pair int32 }

type serveInputs struct {
	insts []instance
	plan  []reqRef
}

func (in *serveInputs) query(i int) serve.Query {
	ref := in.plan[i%len(in.plan)]
	inst := &in.insts[ref.Inst]
	p := inst.Pairs[ref.Pair]
	return serve.Query{Topo: inst.Topo, Failure: inst.Desc, Src: p.Src, Dst: p.Dst}
}

// genServeInputs draws the instances and the request sequence from
// the workload seed. Instances whose failure yields no recovery case
// are redrawn, so every instance can supply recovery pairs.
func genServeInputs(spec serveSpec, wseed int64, worlds map[string]*sim.World) *serveInputs {
	in := &serveInputs{}
	for _, name := range topology.ASNames() {
		w := worlds[name]
		rng := rand.New(rand.NewSource(seed.Derive(wseed, spec.name, "instances", name)))
		n := w.Topo.G.NumNodes()
		for got := 0; got < spec.perTopo; {
			sc := failure.RandomScenario(w.Topo, rng)
			rec, irr := sim.CasesFromScenario(w, sc)
			cases := append(rec, irr...)
			if len(cases) == 0 {
				continue
			}
			inst := instance{Topo: name, Desc: sc.Desc()}
			// Every stride-th pair is uniformly random; the rest are
			// recovery cases of this instance.
			stride := (spec.recPairs + spec.randPairs) / spec.randPairs
			for k := 0; k < spec.recPairs+spec.randPairs; k++ {
				if (k+1)%stride == 0 {
					src := rng.Intn(n)
					dst := rng.Intn(n - 1)
					if dst >= src {
						dst++
					}
					inst.Pairs = append(inst.Pairs, pair{src, dst})
				} else {
					c := cases[rng.Intn(len(cases))]
					inst.Pairs = append(inst.Pairs, pair{int(c.Initiator), int(c.Dst)})
				}
			}
			in.insts = append(in.insts, inst)
			got++
		}
	}
	rng := rand.New(rand.NewSource(seed.Derive(wseed, spec.name, "plan")))
	perm := rng.Perm(len(in.insts))
	var z *zipf
	if spec.zipfS > 0 {
		z = newZipf(len(in.insts), spec.zipfS)
	}
	in.plan = make([]reqRef, planLen)
	for i := range in.plan {
		var inst int
		if z != nil {
			inst = perm[z.draw(rng)]
		} else {
			inst = rng.Intn(len(in.insts))
		}
		in.plan[i] = reqRef{Inst: int32(inst), Pair: int32(rng.Intn(len(in.insts[inst].Pairs)))}
	}
	return in
}

// httpLoad is the client side of a daemon run: one keep-alive
// connection per worker and the prebuilt bytes of every request.
type httpLoad struct {
	in    *serveInputs
	reqs  [][][]byte // [inst][pair]
	conns []*rawConn
	bufs  []*bytes.Buffer
	// One answer in sampleEvery (at an offset drawn from the seed) is
	// kept for the output check.
	sampleEvery, sampleOff int
	samples                [][]sample // per worker
	recovery               []int      // per worker: recovery answers
}

type sample struct {
	i    int
	body []byte
}

func newHTTPLoad(in *serveInputs, addr string, workers, every int, rng *rand.Rand) (*httpLoad, error) {
	l := &httpLoad{in: in, sampleEvery: every, sampleOff: rng.Intn(every)}
	for _, inst := range in.insts {
		row := make([][]byte, len(inst.Pairs))
		for k, p := range inst.Pairs {
			row[k] = requestBytes(addr, inst, p)
		}
		l.reqs = append(l.reqs, row)
	}
	for w := 0; w < workers; w++ {
		c, err := dialRaw(addr)
		if err != nil {
			l.close()
			return nil, err
		}
		l.conns = append(l.conns, c)
		l.bufs = append(l.bufs, new(bytes.Buffer))
	}
	l.samples = make([][]sample, workers)
	l.recovery = make([]int, workers)
	return l, nil
}

// requestBytes is the GET the daemon receives for one pair of an
// instance (its default scheme, all, answers it).
func requestBytes(addr string, inst instance, p pair) []byte {
	return getRequest(addr, "/recover?topo="+inst.Topo+"&failure="+url.QueryEscape(inst.Desc)+
		"&src="+strconv.Itoa(p.Src)+"&dst="+strconv.Itoa(p.Dst))
}

var recoveryMark = []byte(`"disposition":"recovery"`)

func (l *httpLoad) send(w, i int) bool {
	ref := l.in.plan[i%len(l.in.plan)]
	return l.sendRef(w, i, ref)
}

func (l *httpLoad) sendRef(w, i int, ref reqRef) bool {
	buf := l.bufs[w]
	status, err := l.conns[w].do(l.reqs[ref.Inst][ref.Pair], buf)
	if err != nil || status != 200 {
		return false
	}
	if bytes.Contains(buf.Bytes(), recoveryMark) {
		l.recovery[w]++
	}
	if i >= 0 && i%l.sampleEvery == l.sampleOff {
		l.samples[w] = append(l.samples[w], sample{i, append([]byte(nil), buf.Bytes()...)})
	}
	return true
}

func (l *httpLoad) recoveries() int {
	n := 0
	for w := range l.recovery {
		n += l.recovery[w]
		l.recovery[w] = 0
	}
	return n
}

func (l *httpLoad) close() {
	for _, c := range l.conns {
		c.close()
	}
}

// checkAnswers byte-compares sampled daemon answers against the cold
// engine: no cache, full per-destination convergence — the
// repository's baseline serving path. Only the cache_hit flag may
// differ, so the reference takes it from the daemon's answer before
// encoding. It returns the number of mismatches.
func checkAnswers(in *serveInputs, samples []sample, cold *serve.Engine) (int, error) {
	bad := 0
	var buf bytes.Buffer
	for _, s := range samples {
		var got serve.Response
		if err := json.Unmarshal(s.body, &got); err != nil {
			bad++
			continue
		}
		want, err := cold.Query(in.query(s.i))
		if err != nil {
			return 0, fmt.Errorf("reference query %d: %w", s.i, err)
		}
		want.CacheHit = got.CacheHit
		buf.Reset()
		if err := json.NewEncoder(&buf).Encode(want); err != nil {
			return 0, err
		}
		if !bytes.Equal(buf.Bytes(), s.body) {
			bad++
			q := in.query(s.i)
			logf("answer mismatch on request %d (%s %s %d->%d):\n  daemon %s  cold   %s",
				s.i, q.Topo, q.Failure, q.Src, q.Dst, s.body, buf.Bytes())
		}
	}
	return bad, nil
}

// newColdEngine builds the reference engine the answers are checked
// against; its worlds also serve input generation.
func newColdEngine() (*serve.Engine, map[string]*sim.World, error) {
	cold, err := serve.New(serve.Config{Seed: topoSeed, CacheEntries: 0, ColdConvergence: true})
	if err != nil {
		return nil, nil, err
	}
	worlds := map[string]*sim.World{}
	for _, name := range cold.Topologies() {
		worlds[name] = cold.World(name)
	}
	return cold, worlds, nil
}

// How many times a run sets up — starts the daemon, builds the eight
// worlds, builds the 100k-node world — before measuring; setup_s is
// the median. Cheap set-ups repeat more, for a steadier median.
const (
	serveSetups = 7
	sweepSetups = 5
	scaleSetups = 3
)

// A serve run measures serveRounds rounds, each a closed-loop slice
// and one slice per ladder rung; the operating rung's slice is longer,
// so each round alone has enough samples for its p99 (ten beyond it at
// the churn rate with a 20 s window). Shares are of the window.
const (
	serveRounds = 8
	closedSlice = 0.03
	rungSlice   = 0.025
	opRungSlice = 0.05
	warmupSlice = 0.05
)

// ladderSummary is one line about a round's rungs.
func ladderSummary(rungs []*rung, limitMs float64) string {
	var b strings.Builder
	for _, r := range rungs {
		fmt.Fprintf(&b, "%.0f/s p50 %.3f p99 %.3f ms lag p99 %.0f µs%s; ", r.Rate, r.p50(), r.p99(),
			quantile(r.LagUs, 0.99), map[bool]string{true: "", false: " (misses SLO)"}[r.meetsSLO(limitMs)])
	}
	fmt.Fprintf(&b, "rate at %.0f ms SLO %.0f/s", limitMs, rateAtSLO(rungs, limitMs))
	return b.String()
}

func runServe(e env, spec serveSpec) (*result, error) {
	cold, worlds, err := newColdEngine()
	if err != nil {
		return nil, err
	}
	in := genServeInputs(spec, e.seed, worlds)

	bin := filepath.Join(e.binDir, "rtrsimd")
	args := []string{"-cache", strconv.Itoa(spec.cache)}
	var readies []float64
	var d *daemon
	for k := 0; k < serveSetups; k++ {
		if d != nil {
			d.stop()
		}
		if d, err = spawnDaemon(bin, args...); err != nil {
			return nil, err
		}
		readies = append(readies, d.readyS)
	}
	defer d.stop()

	rng := rand.New(rand.NewSource(seed.Derive(e.seed, spec.name, "sample")))
	load, err := newHTTPLoad(in, d.addr, e.procs, spec.checkEvery, rng)
	if err != nil {
		return nil, err
	}
	defer load.close()
	res := newResult()

	// Untimed: prime every request, or warm the LRU to steady state.
	next := 0
	if spec.prime {
		for ii, inst := range in.insts {
			for k := range inst.Pairs {
				if !load.sendRef(0, -1, reqRef{int32(ii), int32(k)}) {
					return nil, fmt.Errorf("priming %s %s failed", inst.Topo, inst.Desc)
				}
			}
		}
	} else {
		warm := closedLoop(e.procs, e.window(warmupSlice), next, load.send)
		next += warm.Attempted
	}
	load.recoveries()
	for w := range load.samples {
		load.samples[w] = load.samples[w][:0]
	}

	// serveRounds rounds, each a closed-loop slice and then the ladder.
	// p50 pools every round. Throughput, the SLO rate and p99 are the
	// best round's: on a shared two-CPU machine other tenants' load
	// only ever lowers throughput and raises latency, by up to half for
	// seconds at a time (closed-loop throughput of identical runs ranged
	// 8.2k-17.5k req/s, the median round's p99 2-3x), while what the
	// program itself costs shows in every round, the best one included.
	var qps, recRates, p99s, slos, opSvc, opLat []float64
	for k := 0; k < serveRounds; k++ {
		closed := closedLoop(e.procs, e.window(closedSlice), next, load.send)
		next += closed.Attempted
		res.Attempted += closed.Attempted
		res.Failed += closed.Failed
		qps = append(qps, closed.QPS())
		recRates = append(recRates, float64(load.recoveries())/closed.Elapsed.Seconds())
		var rungs []*rung
		for _, rate := range spec.ladder {
			slice := rungSlice
			if rate == spec.opRate {
				slice = opRungSlice
			}
			r := openLoop(rate, e.window(slice), e.procs, next, load.send)
			load.recoveries()
			next += r.Attempted
			res.Attempted += r.Attempted
			res.Failed += r.Failed
			rungs = append(rungs, r)
			if rate == spec.opRate {
				p99s = append(p99s, r.p99())
				opSvc = append(opSvc, r.SvcMs...)
				opLat = append(opLat, r.LatMs...)
			}
		}
		slos = append(slos, rateAtSLO(rungs, spec.limitMs))
		logf("%s: round %d: closed %d conns %.0f qps; %s", spec.name, k+1, e.procs, closed.QPS(), ladderSummary(rungs, spec.limitMs))
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}

	var samples []sample
	for _, s := range load.samples {
		samples = append(samples, s...)
	}
	bad, err := checkAnswers(in, samples, cold)
	if err != nil {
		return nil, err
	}
	res.Attempted += len(samples)
	res.Failed += bad
	if bad > 0 {
		res.Correct = false
	}

	res.set("setup_s", median(readies), "s")
	res.set("success_rate", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	res.set("qps_closed", quantile(qps, 1), "1/s")
	res.set("lat_p50_ms", quantile(opSvc, 0.5), "ms")
	res.set("lat_p99_ms", quantile(p99s, 0), "ms")
	res.set("rate_at_slo_qps", quantile(slos, 1), "1/s")
	res.set("cases_per_s", quantile(recRates, 1), "1/s")
	res.set("peak_rss_mib", rss, "MiB")

	tp := tailPercentile(len(opLat))
	logf("%s: setup %v; at %.0f/s over %d rounds, from the actual send: p50 %.3f ms, p99 by round %.3f ms (lowest %.3f); from the intended send: p50 %.3f ms, p%g %.3f ms (%d samples)",
		spec.name, readies, spec.opRate, serveRounds, quantile(opSvc, 0.5), p99s, quantile(p99s, 0), quantile(opLat, 0.5), tp, quantile(opLat, tp/100), len(opLat))
	logf("%s: %d answers checked against the cold engine, %d mismatches", spec.name, len(samples), bad)
	return res, nil
}
