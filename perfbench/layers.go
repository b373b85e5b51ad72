package main

import "fmt"

// endToEnd names every end-to-end metric with its unit. Every workload
// reports all of them, each in its own terms (README.md): an op is a plan
// on plan-cold, a request on serve-zipf and a simulated epoch on horizon.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"alloc_mb_per_op", "MB"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"sim_epoch_s", "s"},
}

// setEndToEnd reports every end-to-end metric from m; a missing one is a
// benchmark bug.
func setEndToEnd(res *result, m map[string]float64) error {
	for _, e := range endToEnd {
		v, ok := m[e.name]
		if !ok {
			return fmt.Errorf("end-to-end metric %s not measured", e.name)
		}
		res.set(e.name, e.unit, v)
	}
	return nil
}

// layerMetrics names every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. Every traced run reports all of them; a layer
// the workload does not reach reads 0 (README.md lists which workload
// moves which metric).
var layerMetrics = []struct{ name, unit string }{
	{"placement.search_ms", "ms"},
	{"placement.enumerate_ms", "ms"},
	{"placement.candidates_evaluated", "count"},
	{"placement.search_allocs", "count"},
	{"placement.score_cache_hit_frac", "frac"},
	{"maxflow.solves_per_plan", "count"},
	{"maxflow.solves_per_candidate", "count"},
	{"maxflow.augmenting_paths_per_plan", "count"},
	{"maxflow.warm_abort_frac", "frac"},
	{"flownet.solve_ms", "ms"},
	{"flownet.cluster_plan_ms", "ms"},
	{"core.profile_ms", "ms"},
	{"cluster.plan_ms", "ms"},
	{"trainsim.stats_ms", "ms"},
	{"trainsim.demand_ms", "ms"},
	{"trainsim.epoch_ms", "ms"},
	{"trainsim.drift_horizon_ms", "ms"},
	{"trainsim.fault_horizon_ms", "ms"},
	{"trainsim.resim_frac", "frac"},
	{"simnet.run_ms", "ms"},
	{"faults.injected_per_op", "count"},
	{"ddak.place_ms", "ms"},
	{"ddak.delta_ms", "ms"},
	{"ddak.delta_frac", "frac"},
	{"ddak.delta_moved_items", "count"},
	{"ddak.moved_gib", "GiB"},
	{"adaptive.trips", "count"},
	{"adaptive.replans", "count"},
	{"adaptive.replan_commit_frac", "frac"},
	{"server.plan_cache_hit_frac", "frac"},
	{"server.coalesced_frac", "frac"},
	{"server.shed_frac", "frac"},
	{"server.wait_ms_mean", "ms"},
	{"server.hit_ms_p50", "ms"},
	{"server.miss_ms_p50", "ms"},
	{"server.explain_ms_p50", "ms"},
	{"stage.profile_frac", "frac"},
	{"stage.enumerate_frac", "frac"},
	{"stage.demand_frac", "frac"},
	{"stage.search_frac", "frac"},
	{"stage.epoch_frac", "frac"},
	{"stage.cluster_frac", "frac"},
	{"stage.remainder_frac", "frac"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "frac"},
}

// setLayerMetrics reports every per-layer metric: the measured values in
// m, and 0 for layers the workload did not reach.
func setLayerMetrics(res *result, m map[string]float64) {
	for _, lm := range layerMetrics {
		res.set(lm.name, lm.unit, m[lm.name])
	}
}
