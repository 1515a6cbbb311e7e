package main

// metricDef names one per-layer metric and its unit. BENCHMARK.json's
// per_layer list must match this one (TestBenchmarkJSONMatches).
type metricDef struct{ name, unit string }

// perLayerMetrics is every metric a traced run reports, layer by layer.
// Times ending in _s are host seconds per traced repetition; self times
// come from the CPU profile, the other times from the span wrappers.
var perLayerMetrics = concat(
	[]metricDef{
		{"workload.build_s", "s"},
		{"workload.verify_s", "s"},
		{"workload.exec_self_s", "s"},
		{"workload.ref_self_s", "s"},
		{"sim.new_s", "s"},
		{"sim.self_s", "s"},
		{"sim.executed_cycles", "count"},
		{"sim.skipped_cycles", "count"},
		{"sim.dispatches", "count"},
		{"sim.sm_ticks", "count"},
		{"sim.hierarchy_sleep_frac", "fraction"},
		{"memsys.self_s", "s"},
		{"sched.self_s", "s"},
		{"gpu.self_s", "s"},
		{"gpu.instr_issued", "count"},
		{"gpu.l1_accesses", "count"},
		{"gpu.l1_reject_frac", "fraction"},
		{"gpu.mem_stall_cycles", "count"},
		{"gpu.complete_s", "s"},
		{"gpu.complete_calls", "count"},
	},
	ctrlSpanMetrics(),
	[]metricDef{
		{"ctrl.self_s", "s"},
		{"ctrl.core_share", "fraction"},
		{"ctrl.tc_share", "fraction"},
		{"ctrl.nocoh_share", "fraction"},
		{"core.l1.hit_rate", "fraction"},
		{"core.l1.renewals", "count"},
		{"core.l1.renewal_hit_rate", "fraction"},
		{"core.l1.mshr_stalls", "count"},
		{"tc.l1.hit_rate", "fraction"},
		{"tc.l1.expired_misses", "count"},
		{"tc.l2.write_stall_cycles", "count"},
		{"noc.self_s", "s"},
		{"noc.msgs", "count"},
		{"noc.flits", "count"},
		{"noc.queue_delay_cycles", "count"},
		{"cache.self_s", "s"},
		{"mem.self_s", "s"},
		{"dram.self_s", "s"},
		{"dram.reads", "count"},
		{"dram.writes", "count"},
		{"other.cpu_frac", "fraction"},
		{"runtime.self_s", "s"},
		{"runtime.allocs_per_kcycle", "1/kcycle"},
		{"runtime.alloc_mb", "MB"},
		{"runtime.gc_cycles", "count"},
		{"runtime.gc_cpu_s", "s"},
		{"runtime.allocs_jitter_frac", "fraction"},
		{"experiments.sims", "count"},
		{"experiments.idle_frac", "fraction"},
		{"trace.self_s", "s"},
		{"trace.cpu_s", "s"},
		{"trace.profile_hz", "1/s"},
		{"trace.unattributed_frac", "fraction"},
		{"trace.overhead_frac", "fraction"},
		{"trace.count_mismatches", "count"},
	},
)

// ctrlSpanMetrics lists the six controller seams, each as inclusive
// seconds and calls, summed over whichever protocol's controllers run.
func ctrlSpanMetrics() []metricDef {
	var out []metricDef
	for i := l1Access; i < smComplete; i++ {
		out = append(out,
			metricDef{"ctrl." + seamNames[i] + "_s", "s"},
			metricDef{"ctrl." + seamNames[i] + "_calls", "count"})
	}
	return out
}

func concat(parts ...[]metricDef) []metricDef {
	var out []metricDef
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}
