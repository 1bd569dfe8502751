package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/seed"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/topology"
)

// unusedSeed was never used while the benchmark was built or tuned.
const unusedSeed = 7_340_021

var (
	coldOnce   sync.Once
	coldEng    *serve.Engine
	coldWorlds map[string]*sim.World
	coldErr    error
)

func cold(t *testing.T) (*serve.Engine, map[string]*sim.World) {
	t.Helper()
	coldOnce.Do(func() { coldEng, coldWorlds, coldErr = newColdEngine() })
	if coldErr != nil {
		t.Fatal(coldErr)
	}
	return coldEng, coldWorlds
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeInputsDeterministic(t *testing.T) {
	_, worlds := cold(t)
	for _, spec := range []serveSpec{warmSpec, churnSpec} {
		a := genServeInputs(spec, 5, worlds)
		b := genServeInputs(spec, 5, worlds)
		if !bytes.Equal(mustJSON(t, a.insts), mustJSON(t, b.insts)) || !bytes.Equal(mustJSON(t, a.plan), mustJSON(t, b.plan)) {
			t.Errorf("%s: the same seed gave different inputs", spec.name)
		}
		// The request bytes on the wire, too.
		if !bytes.Equal(wireBytes(a), wireBytes(b)) {
			t.Errorf("%s: the same seed gave different request bytes", spec.name)
		}
		c := genServeInputs(spec, 6, worlds)
		if bytes.Equal(mustJSON(t, a.plan), mustJSON(t, c.plan)) {
			t.Errorf("%s: seeds 5 and 6 gave the same plan", spec.name)
		}
	}
}

// wireBytes concatenates the first thousand requests' bytes in plan
// order.
func wireBytes(in *serveInputs) []byte {
	var out []byte
	for i := 0; i < 1000; i++ {
		ref := in.plan[i]
		inst := in.insts[ref.Inst]
		out = append(out, requestBytes("127.0.0.1:1", inst, inst.Pairs[ref.Pair])...)
	}
	return out
}

func TestServeInputsShape(t *testing.T) {
	_, worlds := cold(t)
	in := genServeInputs(churnSpec, 5, worlds)
	if got, want := len(in.insts), churnSpec.perTopo*len(topology.ASNames()); got != want {
		t.Fatalf("%d instances, want %d", got, want)
	}
	for _, inst := range in.insts {
		if len(inst.Pairs) != churnSpec.recPairs+churnSpec.randPairs {
			t.Fatalf("instance %s %s has %d pairs", inst.Topo, inst.Desc, len(inst.Pairs))
		}
	}
	// Zipf popularity: the most requested instance takes far more than
	// a uniform share.
	counts := map[int32]int{}
	for _, r := range in.plan {
		counts[r.Inst]++
	}
	top := 0
	for _, c := range counts {
		top = max(top, c)
	}
	if uniform := len(in.plan) / len(in.insts); top < 50*uniform {
		t.Errorf("top instance drew %d requests, uniform share %d: not Zipf(1)", top, uniform)
	}
}

// TestUnusedSeedServesClean answers the head of each serve workload's
// plan for a seed never used while building, through the warm-cache
// engine the daemon runs, and checks every answer byte for byte against
// the cold reference engine — the daemon's output check, in process.
func TestUnusedSeedServesClean(t *testing.T) {
	ref, worlds := cold(t)
	for _, spec := range []serveSpec{warmSpec, churnSpec} {
		in := genServeInputs(spec, unusedSeed, worlds)
		eng, err := serve.New(serve.Config{Seed: topoSeed, CacheEntries: spec.cache})
		if err != nil {
			t.Fatal(err)
		}
		var samples []sample
		for i := 0; i < 300; i++ {
			resp, err := eng.Query(in.query(i))
			if err != nil {
				t.Fatalf("%s: request %d: %v", spec.name, i, err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(resp); err != nil {
				t.Fatal(err)
			}
			samples = append(samples, sample{i, buf.Bytes()})
		}
		bad, err := checkAnswers(in, samples, ref)
		if err != nil {
			t.Fatal(err)
		}
		if bad != 0 {
			t.Errorf("%s: %d of %d answers differ from the cold engine", spec.name, bad, len(samples))
		}
	}
}

func TestSweepPlanDeterministic(t *testing.T) {
	a, b := sweepSpec(5).Shards(), sweepSpec(5).Shards()
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Fatal("the same seed gave different shard plans")
	}
	for i := range a {
		if a[i].Seed(5) != b[i].Seed(5) {
			t.Fatalf("shard %s: seeds differ", a[i].Key)
		}
	}
	if a[0].Seed(5) == sweepSpec(6).Shards()[0].Seed(6) {
		t.Error("seeds 5 and 6 gave the same first shard seed")
	}
}

// TestUnusedSeedSweepsClean runs an eighth of the paper sweep for an
// unused seed at one and two workers and applies the sweep workload's
// output checks: equal merged digests and a clean oracle and
// per-shard replay on sampled shards.
func TestUnusedSeedSweepsClean(t *testing.T) {
	spec := miniSweepSpec(unusedSeed)
	worlds, err := buildWorlds(spec)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := runSweepOnce(spec, worlds, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := runSweepOnce(spec, worlds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if r1.digest != r2.digest {
		t.Errorf("merged digest depends on workers: %s vs %s", r1.digest, r2.digest)
	}
	rng := rand.New(rand.NewSource(seed.Derive(unusedSeed, "test")))
	checked, bad, err := checkShards(spec, worlds, r2.res, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if checked == 0 || len(bad) > 0 {
		t.Errorf("checked %d cases, problems %v", checked, bad)
	}
}

// TestScaleQueriesDeterministic draws the first-touch sequence twice
// from one seed on a small tiered world (the 100k-node one is too slow
// for a unit test) and checks each query is a distinct instance that
// the oracle passes.
func TestScaleQueriesDeterministic(t *testing.T) {
	topo, err := topology.Generate(topology.GenParams{Name: "tiered3000", Nodes: 3000, Links: 9000, Tiers: true},
		rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorldFromConfig(topo, sim.WorldConfig{Scale: true})
	if err != nil {
		t.Fatal(err)
	}
	a := genScaleQueries(w, unusedSeed, 6)
	b := genScaleQueries(w, unusedSeed, 6)
	if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
		t.Fatal("the same seed gave different scale queries")
	}
	seen := map[string]bool{}
	for _, q := range a {
		if seen[q.Failure] {
			t.Errorf("failure %s repeats; first-touch queries must be distinct", q.Failure)
		}
		seen[q.Failure] = true
	}
	eng, err := serve.New(serve.Config{Worlds: map[string]*sim.World{"tiered3000": w}, CacheEntries: scaleCache, DefaultScheme: serve.SchemeRTR})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range a {
		q.Topo = "tiered3000"
		resp, err := eng.Query(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if resp.CacheHit {
			t.Errorf("query %d hit the cache", i)
		}
		c, err := scaleCase(w, q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if vs := checkRTR(w, c); len(vs) > 0 {
			t.Errorf("query %d: oracle: %v", i, vs[0])
		}
	}
}
