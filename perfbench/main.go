// Command perfbench is the repository's end-to-end benchmark. It
// drives the recovery system the way its users do — the rtrsimd
// daemon over loopback HTTP, the paper's Table III/IV sweep, and
// first-touch serving on a 100k-node world — measures each workload
// for a fixed time, checks the outputs against a path the repository
// already trusts, and prints one JSON result line.
//
//	perfbench --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 it replays the workload's inputs with spans around each
// layer's public calls and reports per-layer metrics instead. Every
// input derives from --seed; the program under test receives only the
// generated inputs. Progress and a human summary go to stderr. The
// exit status is 1 when a run fails or an output check finds a wrong
// answer. See NOTES.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// env is what every workload run gets.
type env struct {
	seed    int64
	seconds float64
	// binDir holds the built rtrsimd binary.
	binDir string
	// procs is the load and worker parallelism (the machine's CPUs).
	procs int
}

func (e env) window(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run's outcome, printed as the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newResult() *result { return &result{Correct: true, Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// setDefault sets a metric an earlier measurement has not set.
func (r *result) setDefault(name string, v float64, unit string) {
	if _, ok := r.Metrics[name]; !ok {
		r.set(name, v, unit)
	}
}

// workload is one named traffic mix.
type workload struct {
	run   func(env) (*result, error)
	trace func(env) (*result, error)
}

var workloads = map[string]workload{
	"serve-warm":       {run: func(e env) (*result, error) { return runServe(e, warmSpec) }, trace: func(e env) (*result, error) { return traceServe(e, warmSpec) }},
	"serve-churn":      {run: func(e env) (*result, error) { return runServe(e, churnSpec) }, trace: func(e env) (*result, error) { return traceServe(e, churnSpec) }},
	"sweep-paper":      {run: runSweep, trace: traceSweep},
	"scale-firsttouch": {run: runScale, trace: traceScale},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve-warm, serve-churn, sweep-paper, scale-firsttouch")
		seed    = flag.Int64("seed", 1, "workload seed: every generated input derives from it")
		seconds = flag.Float64("seconds", 20, "measurement window per run, seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced replay and reports per-layer metrics instead of end-to-end ones")
		binDir  = flag.String("bin", ".bench_build", "directory holding the built rtrsimd binary")
	)
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %v)\n", *name, names)
		os.Exit(2)
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	bin, err := filepath.Abs(*binDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	e := env{seed: *seed, seconds: *seconds, binDir: bin, procs: runtime.NumCPU()}
	run, names := wl.run, endToEndMetrics
	if *trace == 1 {
		run, names = wl.trace, perLayerMetrics
	}
	res, err := run(e)
	if err == nil {
		err = checkMetricNames(res, names)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s: output check failed\n", *name)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
