package main

// allSections are the experiments sections the batch workloads call,
// each reported as experiments.<name>_s.
var allSections = []string{
	"fig3", "table3", "fig4", "fig5", "fig6", "mapreduce", "stability", "forecast",
	"chaos", "tournament", "failover",
}

// perLayerUnits lists every per-layer metric outside the experiments
// and cpu families, with its unit. A traced run reports each of them;
// a layer the workload does not cross reads 0.
var perLayerUnits = [][2]string{
	{"trace.generate_ms", "ms"},
	{"trace.generate_calls", "count"},
	{"trace.memo_hit_ratio", "ratio"},
	{"trace.slots_generated", "count"},
	{"dist.ecdf_build_us", "us"},
	{"dist.window_push_ns", "ns"},
	{"dist.partial_mean_ns", "ns"},
	{"market.partial_mean_us", "us"},
	{"market.cdf_us", "us"},
	{"core.persistent_bid_ecdf_us", "us"},
	{"core.onetime_bid_ecdf_us", "us"},
	{"core.persistent_bid_analytic_ms", "ms"},
	{"core.onetime_bid_analytic_us", "us"},
	{"cloud.tick_ns", "ns"},
	{"cloud.slots", "count"},
	{"job.run_ms", "ms"},
	{"client.market_us", "us"},
	{"client.market_armed_us", "us"},
	{"client.run_persistent_ms", "ms"},
	{"experiments.tournament_violations", "count"},
	{"invariant.campaign_s", "s"},
	{"invariant.schedules", "count"},
	{"invariant.violations", "count"},
	{"invariant.scenario_run_ms", "ms"},
	{"invariant.verify_ms", "ms"},
	{"serve.decode_ns", "ns"},
	{"serve.quote_ns", "ns"},
	{"serve.handler_us", "us"},
	{"serve.handler_p99_us", "us"},
	{"serve.http_us", "us"},
	{"serve.client_p99_us", "us"},
	{"serve.handler_alloc_b", "B"},
	{"serve.ingest_us", "us"},
	{"serve.rebuild_ms", "ms"},
	{"serve.builds", "count"},
	{"serve.table_swaps", "count"},
	{"serve.fresh_ratio", "ratio"},
	{"serve.ok_share", "ratio"},
	{"serve.refused_share", "ratio"},
	{"serve.offgrid_share", "ratio"},
	{"mem.alloc_mb", "MB"},
	{"mem.gc_cycles", "count"},
	{"bench.tracing_overhead", "ratio"},
	{"bench.error_rate", "ratio"},
}

// perLayerNames returns every per-layer metric name with its unit, in
// report order.
func perLayerNames() [][2]string {
	var out [][2]string
	for _, s := range allSections {
		out = append(out, [2]string{"experiments." + s + "_s", "s"})
	}
	out = append(out, perLayerUnits...)
	for _, m := range layerModules {
		out = append(out, [2]string{"cpu." + m + "_share", "ratio"})
	}
	for _, r := range []string{rowRuntime, rowNet, rowOther} {
		out = append(out, [2]string{"cpu." + r + "_share", "ratio"})
	}
	for _, m := range layerModules {
		out = append(out, [2]string{"cpu." + m + "_incl_share", "ratio"})
	}
	return out
}

// finishPerLayer fills every per-layer metric the workload did not
// measure with 0 and sets the error rate.
func finishPerLayer(o *outcome) {
	for _, nu := range perLayerNames() {
		if _, ok := o.metrics[nu[0]]; !ok {
			o.set(nu[0], nu[1], 0)
		}
	}
	rate := 0.0
	if o.attempted > 0 {
		rate = float64(len(o.failures)) / float64(o.attempted)
	}
	o.set("bench.error_rate", "ratio", rate)
}

// setCPUShares folds the traced run's CPU samples into the cpu.*
// metrics.
func setCPUShares(o *outcome, samples []sample) {
	self, incl := fold(samples)
	for _, m := range layerModules {
		o.set("cpu."+m+"_share", "ratio", self[m])
		o.set("cpu."+m+"_incl_share", "ratio", incl[m])
	}
	for _, r := range []string{rowRuntime, rowNet, rowOther} {
		o.set("cpu."+r+"_share", "ratio", self[r])
	}
}
