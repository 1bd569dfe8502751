package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/failure"
	"repro/internal/invariant"
	"repro/internal/seed"
	"repro/internal/sim"
	"repro/internal/spt"
	"repro/internal/sweep"
	"repro/internal/topology"
)

// sweepCases is rtrsim's default per-topology case target (each of
// recoverable and irrecoverable).
const sweepCases = 2000

// sweepShardLimitMs is the per-shard latency limit behind the sweep's
// rate_at_slo_qps: cases per second counting only shards that finished
// within it.
const sweepShardLimitMs = 2000

// sweepSpec is the paper's Table III/IV case sweep over all eight
// topologies, in memory, with the default disk generator and Dijkstra
// phase 2. The workload seed is the sweep's base seed, which also
// seeds topology synthesis, as in rtrsim.
func sweepSpec(wseed int64) sweep.Spec {
	return sweep.Spec{
		BaseSeed:      wseed,
		Topologies:    topology.ASNames(),
		Recoverable:   sweepCases,
		Irrecoverable: sweepCases,
		BlockCases:    sweep.DefaultBlockCases,
		Phase2:        spt.EngineDijkstra.String(),
	}
}

// buildWorlds builds the sweep's worlds serially, as rtrsim does.
func buildWorlds(spec sweep.Spec) (map[string]*sim.World, error) {
	worlds := map[string]*sim.World{}
	for _, name := range spec.Topologies {
		w, err := sim.NewWorldPhase2(name, spec.BaseSeed, spt.EngineDijkstra)
		if err != nil {
			return nil, err
		}
		worlds[name] = w
	}
	return worlds, nil
}

// sweepRun is one complete in-memory sweep.
type sweepRun struct {
	elapsed time.Duration
	cases   int
	shardMs []float64
	// shardCases counts each shard's cases, in plan order.
	shardCases []int
	digest     string
	res        *sweep.RunResult
}

func runSweepOnce(spec sweep.Spec, worlds map[string]*sim.World, workers int) (*sweepRun, error) {
	eng := &sweep.Engine{Spec: spec, Worlds: worlds, Workers: workers}
	t0 := time.Now()
	res, err := eng.Run(context.Background())
	if err != nil {
		return nil, err
	}
	r := &sweepRun{elapsed: time.Since(t0), res: res}
	if !res.Complete() {
		return nil, fmt.Errorf("sweep incomplete: %d/%d shards", len(res.Results), len(res.Plan))
	}
	for _, sh := range res.Plan {
		sr := res.Results[sh.Key]
		r.cases += len(sr.Rec) + len(sr.Irr)
		r.shardMs = append(r.shardMs, float64(sr.ElapsedNs)/1e6)
		r.shardCases = append(r.shardCases, len(sr.Rec)+len(sr.Irr))
	}
	if r.digest, err = mergedDigest(res, worlds); err != nil {
		return nil, err
	}
	return r, nil
}

// mergedDigest hashes the merged per-topology records in plan order.
func mergedDigest(res *sweep.RunResult, worlds map[string]*sim.World) (string, error) {
	ds, err := res.Datasets(worlds)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, name := range res.Spec.Topologies {
		d := ds[name]
		if err := enc.Encode(d.Rec); err != nil {
			return "", err
		}
		if err := enc.Encode(d.Irr); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// checkShards re-collects k seeded case shards from their shard seeds,
// runs the invariant oracle over every case, and checks the sweep
// recorded exactly the records the per-shard runner produces. It
// returns the number of cases checked and the problems found.
func checkShards(spec sweep.Spec, worlds map[string]*sim.World, res *sweep.RunResult, k int, rng *rand.Rand) (int, []string, error) {
	gen := failure.Default()
	var plan []sweep.Shard
	for _, sh := range res.Plan {
		if sh.Kind == sweep.KindCases {
			plan = append(plan, sh)
		}
	}
	checked := 0
	var bad []string
	for _, i := range rng.Perm(len(plan))[:k] {
		sh := plan[i]
		w := worlds[sh.Topology]
		srng := rand.New(rand.NewSource(sh.Seed(spec.BaseSeed)))
		rec, irr := sim.CollectBothG(w, gen, srng, sh.Rec, sh.Irr)
		kk := invariant.New(w).WithProfile(invariant.ProfileFor(gen))
		for _, cases := range [][]*sim.Case{rec, irr} {
			if err := kk.CheckCases(cases); err != nil {
				bad = append(bad, fmt.Sprintf("shard %s: %v", sh.Key, err))
			}
			checked += len(cases)
		}
		want, err := json.Marshal([][]sim.CaseRecord{sim.Records(sim.RunAllN(w, rec, 1)), sim.Records(sim.RunAllN(w, irr, 1))})
		if err != nil {
			return 0, nil, err
		}
		sr := res.Results[sh.Key]
		got, err := json.Marshal([][]sim.CaseRecord{sr.Rec, sr.Irr})
		if err != nil {
			return 0, nil, err
		}
		if string(got) != string(want) {
			bad = append(bad, fmt.Sprintf("shard %s: recorded outcomes differ from the per-shard runner", sh.Key))
		}
	}
	return checked, bad, nil
}

func runSweep(e env) (*result, error) {
	spec := sweepSpec(e.seed)
	var setups []float64
	var worlds map[string]*sim.World
	for k := 0; k < sweepSetups; k++ {
		worlds = nil
		t0 := time.Now()
		w, err := buildWorlds(spec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		worlds = w
	}

	res := newResult()
	var runs []*sweepRun
	start := time.Now()
	for len(runs) < 2 || time.Since(start) < e.window(1) {
		r, err := runSweepOnce(spec, worlds, e.procs)
		if err != nil {
			return nil, err
		}
		// Only the first run's records are checked below; dropping the
		// rest keeps peak RSS independent of how many runs fit.
		if len(runs) > 0 {
			r.res = nil
		}
		runs = append(runs, r)
		res.Attempted += r.cases
	}
	rss, err := vmHWM(0)
	if err != nil {
		return nil, err
	}

	// Output checks: every run merged to the same records, a serial
	// run merges to them too, and the oracle passes on sampled shards.
	var problems []string
	serial, err := runSweepOnce(spec, worlds, 1)
	if err != nil {
		return nil, err
	}
	for i, r := range runs {
		if r.digest != serial.digest {
			problems = append(problems, fmt.Sprintf("run %d (%d workers) merged digest %s differs from the serial run's %s",
				i, e.procs, r.digest[:12], serial.digest[:12]))
		}
	}
	rng := rand.New(rand.NewSource(seed.Derive(e.seed, "sweep-paper", "check")))
	checked, bad, err := checkShards(spec, worlds, runs[0].res, 2, rng)
	if err != nil {
		return nil, err
	}
	problems = append(problems, bad...)
	res.Attempted += checked + len(runs)
	res.Failed += len(problems)
	if len(problems) > 0 {
		res.Correct = false
		for _, p := range problems {
			logf("sweep-paper: %s", p)
		}
	}

	var rates, shardMs, wallMs []float64
	var cases, inLimit int
	var total time.Duration
	for _, r := range runs {
		rates = append(rates, float64(r.cases)/r.elapsed.Seconds())
		wallMs = append(wallMs, float64(r.elapsed)/1e6)
		shardMs = append(shardMs, r.shardMs...)
		cases += r.cases
		total += r.elapsed
		for i, ms := range r.shardMs {
			if ms <= sweepShardLimitMs {
				inLimit += r.shardCases[i]
			}
		}
	}
	res.set("setup_s", median(setups), "s")
	res.set("success_rate", float64(res.Attempted-res.Failed)/float64(res.Attempted), "ratio")
	res.set("qps_closed", float64(cases)/total.Seconds(), "1/s")
	// A sweep's latency is the time to the finished tables: the wall
	// time of one whole sweep.
	res.set("lat_p50_ms", quantile(wallMs, 0.5), "ms")
	res.set("lat_p99_ms", quantile(wallMs, 0.99), "ms")
	res.set("rate_at_slo_qps", float64(inLimit)/total.Seconds(), "1/s")
	res.set("cases_per_s", median(rates), "1/s")
	res.set("peak_rss_mib", rss, "MiB")
	logf("sweep-paper: setup %v; %d runs of %d cases at %d workers: %v cases/s; shard p50 %.1f ms p%g %.1f ms (%d shards); %d cases oracle-checked, serial digest %s",
		setups, len(runs), runs[0].cases, e.procs, rates, quantile(shardMs, 0.5),
		tailPercentile(len(shardMs)), quantile(shardMs, tailPercentile(len(shardMs))/100), len(shardMs), checked, serial.digest[:12])
	return res, nil
}
