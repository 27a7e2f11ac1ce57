package main

// The benchmark's metrics, by name. BENCHMARK.json records the same names
// and units (smoke_test.go holds the two together); README.md has the
// glossary.

// metricDef is one metric of the contract.
type metricDef struct {
	name, unit string
}

// endToEndDefs are the metrics of the untraced run. Each is defined on every
// workload; what an op and a unit of work are is the workload's (see
// catalog).
var endToEndDefs = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"work_per_s", "1/s"},
	{"alloc_kb_per_op", "KiB"},
	{"allocs_per_op", "count"},
}

// perLayerDefs are the metrics of the traced run: the workload's budget
// rows and harness figures, then the layer probes in probe-path order.
var perLayerDefs = []metricDef{
	{"budget.op_us", "us"},
	{"budget.infer_us", "us"},
	{"budget.probe_us", "us"},
	{"budget.ofconn_us", "us"},
	{"budget.switchsim_us", "us"},
	{"budget.sched_us", "us"},
	{"budget.sched.order_us", "us"},
	{"budget.pattern_us", "us"},
	{"budget.fleet_us", "us"},
	{"budget.unattributed_us", "us"},
	{"budget.unattributed_share", "ratio"},
	{"budget.overlap_us", "us"},
	{"switchsim.busy_share", "ratio"},
	{"harness.trace_overhead_ratio", "ratio"},
	{"harness.gc_pause_ms", "ms"},
	{"harness.op_ms_p50", "ms"},
	{"harness.op_ms_p95", "ms"},
	{"harness.cpu_ms_per_op", "ms"},
	{"harness.calibration_ms", "ms"},

	{"packet.build_probe_ns", "ns"},
	{"packet.decode_ns", "ns"},
	{"packet.allocs_per_frame", "count"},

	{"openflow.flowmod_marshal_ns", "ns"},
	{"openflow.flowmod_decode_ns", "ns"},
	{"openflow.packetout_roundtrip_ns", "ns"},
	{"openflow.packetin_roundtrip_ns", "ns"},
	{"openflow.allocs_per_msg", "count"},

	{"ofconn.dial_handshake_ms", "ms"},
	{"ofconn.echo_us_p50", "us"},
	{"ofconn.barrier_us_p50", "us"},
	{"ofconn.sync_flowmod_us_p50", "us"},
	{"ofconn.async_flowmods_per_s.w1", "1/s"},
	{"ofconn.async_flowmods_per_s.w8", "1/s"},
	{"ofconn.async_flowmods_per_s.w64", "1/s"},
	{"ofconn.writes_per_flowmod", "ratio"},
	{"ofconn.wire_bytes_per_flowmod", "B"},
	{"ofconn.probe_rtt_us_p50", "us"},
	{"ofconn.probe_rtt_us_p95", "us"},
	{"ofconn.probe_rtt_us_p99", "us"},
	{"ofconn.probe_rtt_us_p999", "us"},
	{"ofconn.channel_self_us", "us"},

	{"flowtable.exact_lookup_ns", "ns"},
	{"flowtable.wild_lookup_ns", "ns"},
	{"flowtable.insert_same_prio_ns", "ns"},
	{"flowtable.insert_shift_ns", "ns"},
	{"flowtable.shifted_per_insert", "count"},
	{"flowtable.delete_ns", "ns"},

	{"switchsim.flowmod_ns", "ns"},
	{"switchsim.probe_hit_ns", "ns"},
	{"switchsim.probe_miss_ns", "ns"},
	{"switchsim.handle_us", "us"},
	{"switchsim.events_per_s.fifo", "1/s"},
	{"switchsim.events_per_s.lru", "1/s"},
	{"switchsim.events_per_s.lfu", "1/s"},
	{"switchsim.events_per_s.destagg", "1/s"},
	{"switchsim.events_per_s.fdrc", "1/s"},
	{"switchsim.tcam_hit_ratio.fifo", "ratio"},
	{"switchsim.tcam_hit_ratio.lru", "ratio"},
	{"switchsim.tcam_hit_ratio.lfu", "ratio"},
	{"switchsim.tcam_hit_ratio.destagg", "ratio"},
	{"switchsim.tcam_hit_ratio.fdrc", "ratio"},
	{"switchsim.evictions_per_event", "ratio"},

	{"probe.install_self_ns", "ns"},
	{"probe.probe_self_ns", "ns"},
	{"probe.flowmods_per_inspect", "count"},
	{"probe.probes_per_inspect", "count"},
	{"probe.retries", "count"},

	{"infer.sizes_ms", "ms"},
	{"infer.microflow_ms", "ms"},
	{"infer.policy_ms", "ms"},
	{"infer.costs_ms", "ms"},
	{"infer.self_share", "ratio"},
	{"infer.size_err_pct_max", "%"},
	{"infer.policy_exact_ratio", "ratio"},
	{"infer.probe_virtual_s_per_switch", "s"},
	{"infer.size_tcp_err_pct", "%"},

	{"cluster.find_us", "us"},
	{"stats.negbinomial_mle_ns", "ns"},
	{"stats.spearman_us", "us"},

	{"sched.order_ms_per_run", "ms"},
	{"sched.exec_ms_per_run", "ms"},
	{"sched.self_ms_per_run", "ms"},
	{"sched.rounds_per_run", "count"},
	{"sched.makespan_virtual_s", "s"},
	{"sched.dionysus_over_tango", "ratio"},
	{"sched.update_makespan_virtual_s", "s"},
	{"sched.update_dionysus_over_tango", "ratio"},
	{"sched.tango_order_us", "us"},
	{"dag.build_ns_per_edge", "ns"},
	{"dag.frontier_ns_per_node", "ns"},

	{"fleet.round_ms_p50", "ms"},
	{"fleet.sim_only_switches_per_s", "1/s"},
	{"fleet.worker_scaling", "ratio"},

	{"telemetry.observer_ratio", "ratio"},
	{"telemetry.vec_record_ns", "ns"},
}
