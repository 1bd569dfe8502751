package main

import (
	"fmt"
	"sort"
)

// endToEndMetrics are what an untraced run reports, on every workload;
// BENCHMARK.json lists the same names, units and directions.
var endToEndMetrics = []string{
	"setup_s",
	"success_rate",
	"qps_closed",
	"lat_p50_ms",
	"lat_p99_ms",
	"rate_at_slo_qps",
	"cases_per_s",
	"peak_rss_mib",
}

// perLayerMetrics are what a traced run reports, on every workload.
var perLayerMetrics = []string{
	"http.roundtrip_us", "http.handler_us", "http.encode_us", "http.resp_bytes",
	"serve.query_hit_us", "serve.query_miss_us", "serve.hit_ratio", "serve.evictions_per_query",
	"serve.allocs_per_query", "serve.bytes_per_query", "serve.mutex_wait_us_per_query", "serve.scaling_efficiency",
	"failure.parse_instance_us",
	"routing.local_view_us", "routing.recompute_tables_us", "routing.dest_tree_ms", "routing.compute_tables_ms",
	"spt.truth_tree_us", "spt.clean_tree_ms", "spt.compute_ms",
	"core.collect_us", "core.walk_hops", "core.prepare_us", "core.recovery_path_us", "core.forward_us", "core.new_ms",
	"fcp.run_us", "fcp.sp_calcs", "fcp.new_ms",
	"mrc.run_us", "mrc.new_warm_ms",
	"sim.collect_cases_ms", "sim.runall_rec_ms", "sim.runall_irr_ms", "sim.cases_per_group", "sim.allocs_per_case",
	"sim.world_build_ms",
	"sweep.shard_ms_p50", "sweep.shard_ms_max", "sweep.worker_busy_ratio", "sweep.merge_ms",
	"par.scaling_efficiency",
	"topology.read_binary_ms", "topology.cross_index_ms",
	"loadgen.send_lag_p50_us", "loadgen.send_lag_p99_us",
	"loadgen.send_lag_p99_us.rung1", "loadgen.send_lag_p99_us.rung2", "loadgen.send_lag_p99_us.rung3",
	"proc.gc_cpu_share", "proc.gc_cpu_share.gmp1",
	"trace.coverage", "trace.overhead",
}

// checkMetricNames fails unless res reports exactly the names in want.
func checkMetricNames(res *result, want []string) error {
	var missing, extra []string
	wantSet := map[string]bool{}
	for _, n := range want {
		wantSet[n] = true
		if _, ok := res.Metrics[n]; !ok {
			missing = append(missing, n)
		}
	}
	for n := range res.Metrics {
		if !wantSet[n] {
			extra = append(extra, n)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return fmt.Errorf("metric set mismatch: missing %v, unexpected %v", missing, extra)
	}
	return nil
}
