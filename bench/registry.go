package main

// metricDef describes one reported metric: its name, unit, which direction
// is better and — for end-to-end metrics — the regression bound, the share
// of the parent's median by which it may worsen before a change counts as
// a regression. BENCHMARK.json repeats this registry; a unit test guards
// the two against drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, reported for
// every workload from untraced runs. A bound is three times the widest
// interquartile spread over ten seeds measured on the reference box for
// any workload (README.md has the table), capped at the contract's 25 %:
// a bound inside the noise would flag unchanged code.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"points_per_s", "points/s", "higher", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.15},
}

// perLayer are the single-layer metrics of the traced run; the prefix is
// the module. A metric a workload does not exercise reads 0 there.
var perLayer = []metricDef{
	{Name: "rng.draw_ns", Unit: "ns", Better: "lower"},

	{Name: "topology.build_s", Unit: "s", Better: "lower"},
	{Name: "fault.build_s", Unit: "s", Better: "lower"},
	{Name: "message.pool_build_s", Unit: "s", Better: "lower"},
	{Name: "traffic.build_s", Unit: "s", Better: "lower"},
	{Name: "routing.build_s", Unit: "s", Better: "lower"},
	{Name: "network.build_s", Unit: "s", Better: "lower"},

	{Name: "routing.route_calls", Unit: "count", Better: "lower"},
	{Name: "routing.route_busy_s", Unit: "s", Better: "lower"},
	{Name: "routing.route_ns_p50", Unit: "ns", Better: "lower"},
	{Name: "routing.absorb_share", Unit: "ratio", Better: "lower"},
	{Name: "routing.plan_calls", Unit: "count", Better: "lower"},
	{Name: "routing.plan_busy_s", Unit: "s", Better: "lower"},
	{Name: "routing.refresh_calls", Unit: "count", Better: "lower"},
	{Name: "routing.refresh_busy_s", Unit: "s", Better: "lower"},
	{Name: "routing.walk_ns_per_hop.faulted", Unit: "ns", Better: "lower"},
	{Name: "routing.walk_ns_per_hop.fault_free", Unit: "ns", Better: "lower"},

	{Name: "router.push_pop_ns", Unit: "ns", Better: "lower"},
	{Name: "router.lane_cycle_ns", Unit: "ns", Better: "lower"},

	{Name: "message.new_free_ns", Unit: "ns", Better: "lower"},

	{Name: "traffic.poll_calls", Unit: "count", Better: "lower"},
	{Name: "traffic.poll_busy_s", Unit: "s", Better: "lower"},
	{Name: "traffic.msgs_generated", Unit: "count", Better: "higher"},
	{Name: "traffic.poll_ns_per_msg.poisson", Unit: "ns", Better: "lower"},
	{Name: "traffic.poll_ns_per_msg.burst", Unit: "ns", Better: "lower"},
	{Name: "traffic.poll_ns_per_msg.pareto", Unit: "ns", Better: "lower"},

	{Name: "fault.advance_busy_s", Unit: "s", Better: "lower"},
	{Name: "fault.transitions", Unit: "count", Better: "higher"},

	{Name: "metrics.record_ns", Unit: "ns", Better: "lower"},
	{Name: "metrics.delivered", Unit: "count", Better: "higher"},
	{Name: "metrics.mean_latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "metrics.throughput", Unit: "msg/node/cycle", Better: "higher"},
	{Name: "metrics.queued", Unit: "count", Better: "lower"},
	{Name: "metrics.reinjected", Unit: "count", Better: "lower"},
	{Name: "metrics.lost", Unit: "count", Better: "lower"},

	{Name: "network.cycles", Unit: "cycles", Better: "higher"},
	{Name: "network.step_p50_us", Unit: "us", Better: "lower"},
	{Name: "network.step_p99_us", Unit: "us", Better: "lower"},
	{Name: "network.step_tail_pct", Unit: "%", Better: "higher"},
	{Name: "network.step_self_s", Unit: "s", Better: "lower"},
	{Name: "network.ns_per_delivered_msg", Unit: "ns", Better: "lower"},
	{Name: "network.transition_step_us", Unit: "us", Better: "lower"},
	{Name: "network.allocs_per_kcycle", Unit: "count", Better: "lower"},
	{Name: "network.par_speedup", Unit: "ratio", Better: "higher"},

	{Name: "core.new_engine_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.alloc_mb", Unit: "MiB", Better: "lower"},
	{Name: "core.cpu_s", Unit: "s", Better: "lower"},

	{Name: "sweep.point_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.point_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.point_tail_pct", Unit: "%", Better: "higher"},
	{Name: "sweep.pool_efficiency", Unit: "ratio", Better: "higher"},
	{Name: "sweep.journal_append_us", Unit: "us", Better: "lower"},
	{Name: "sweep.journal_recover_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.point_id_us", Unit: "us", Better: "lower"},
	{Name: "sweep.lease_cycle_us", Unit: "us", Better: "lower"},

	{Name: "coord.lease_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.result_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "coord.handler_busy_s", Unit: "s", Better: "lower"},
	{Name: "coord.overhead_us_per_point", Unit: "us", Better: "lower"},
	{Name: "coord.cached_points_per_s", Unit: "points/s", Better: "higher"},
	{Name: "coord.idle_polls", Unit: "count", Better: "lower"},
	{Name: "coord.lease_expired", Unit: "count", Better: "lower"},
	{Name: "coord.late_results", Unit: "count", Better: "lower"},

	{Name: "analytic.model_err_pct", Unit: "%", Better: "lower"},

	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}
