package main

// layerMetric is one per-layer metric of the traced run.
type layerMetric struct {
	name, unit, better string
}

// layerMetrics lists every per-layer metric, grouped by the module it
// measures. BENCHMARK.json's per_layer list is this table; a test keeps
// the two in step.
var layerMetrics = []layerMetric{
	{"mdp.solve_ms", "ms", "lower"},
	{"mdp.probes", "count", "lower"},
	{"mdp.ms_per_probe", "ms", "lower"},
	{"mdp.opt_sweeps", "count", "lower"},
	{"mdp.eval_sweeps", "count", "lower"},
	{"mdp.sweep_equiv", "count", "lower"},
	{"mdp.ns_per_transition", "ns", "lower"},
	{"mdp.computed_bytes_per_sweep", "B", "lower"},
	{"mdp.slots_eliminated", "count", "higher"},
	{"mdp.boundary_ms", "ms", "lower"},
	{"mdp.boundary_sweep_equiv", "count", "lower"},

	{"bumdp.compile_ms", "ms", "lower"},
	{"bumdp.states", "count", "lower"},
	{"bumdp.transitions", "count", "lower"},

	{"core.busy_share", "ratio", "higher"},
	{"core.cell_p50_ms", "ms", "lower"},
	{"core.cell_p90_ms", "ms", "lower"},

	{"expstore.mem_hit_share", "ratio", "higher"},
	{"expstore.disk_hit_share", "ratio", "lower"},
	{"expstore.evictions", "count", "lower"},
	{"expstore.mem_get_us", "us", "lower"},
	{"expstore.disk_get_us", "us", "lower"},
	{"expstore.key_us", "us", "lower"},
	{"expstore.put_us", "us", "lower"},

	{"buserve.client_p99_ms", "ms", "lower"},
	{"buserve.server_p50_ms", "ms", "lower"},
	{"buserve.server_p99_ms", "ms", "lower"},
	{"buserve.client_gap_p99_ms", "ms", "lower"},

	{"jobqueue.queue_wait_ms", "ms", "lower"},
	{"jobqueue.journal_bytes", "B", "lower"},
	{"jobqueue.journal_rewrite_bytes", "B", "lower"},
	{"jobqueue.journal_op_us", "us", "lower"},
	{"jobqueue.memory_op_us", "us", "lower"},

	{"verify.check_ms", "ms", "lower"},
	{"verify.cost_share", "ratio", "lower"},
	{"verify.rejects", "count", "lower"},

	{"farm.enqueue_rtt_ms", "ms", "lower"},
	{"farm.lease_rtt_ms", "ms", "lower"},
	{"farm.complete_rtt_ms", "ms", "lower"},
	{"farm.execute_ms", "ms", "lower"},
	{"farm.busy_share", "ratio", "higher"},
	{"farm.empty_leases", "count", "lower"},

	{"trace.overhead_share", "ratio", "lower"},
}

// deterministicCounts are the per-layer counts that must repeat exactly
// across traced runs at one seed: a later gate can assert them.
var deterministicCounts = []string{
	"mdp.probes", "mdp.opt_sweeps", "mdp.eval_sweeps", "mdp.sweep_equiv",
	"mdp.slots_eliminated", "mdp.boundary_sweep_equiv",
	"bumdp.states", "bumdp.transitions",
	"expstore.mem_hit_share", "expstore.disk_hit_share", "expstore.evictions",
	"jobqueue.journal_bytes", "jobqueue.journal_rewrite_bytes",
	"verify.rejects",
}

// completeLayers returns every per-layer metric, with the ones a
// workload's traced pass never reached reported as 0: that workload's
// timed phase makes no call into the layer.
func completeLayers(got map[string]metric) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		v := got[m.name]
		out[m.name] = metric{v.Value, m.unit}
	}
	return out
}
