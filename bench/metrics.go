package main

// metricSpec names one reported metric. The two lists below are the
// benchmark's contract: BENCHMARK.json declares the same names and units
// (a harness test compares them both ways), and a run that ends without a
// value for every name of its phase is an error.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of the system sees; every workload reports all
// of them with tracing off. Bounds live in BENCHMARK.json.
var endToEnd = []metricSpec{
	{"setup_s", "s"},                     // build campaign (+ engine), median over all repetitions, the warm-up's included
	{"wall_s", "s"},                      // wall time of the timed region
	{"ops_per_s", "op/s"},                // ops / wall_s
	{"cpu_ms_per_kop", "ms"},             // user+sys CPU over the timed region per 1000 ops
	{"allocs_per_op", "count"},           // MemStats.Mallocs delta / ops
	{"alloc_bytes_per_op", "B"},          // MemStats.TotalAlloc delta / ops
	{"peak_rss_mb", "MiB"},               // ru_maxrss of the workload's process
	{"upstream_queries_per_op", "count"}, // simnet.Network.QueryCount delta / ops
	{"ok_ops_pct", "%"},                  // 100 × (attempted − failed) / attempted
}

// perLayer is the trace phase's output (-trace 1): span self times and
// counts from the traced rebuild, and the layer probes. A metric the
// traced workload's shape does not exercise reads 0 there (README,
// "Per-layer metrics", says which).
var perLayer = []metricSpec{
	{"core.self_pct", "%"},
	{"workload.self_pct", "%"},
	{"scanner.self_pct", "%"},
	{"transport.self_pct", "%"},
	{"resolver.self_pct", "%"},
	{"providers.self_pct", "%"},
	{"dataset.self_pct", "%"},
	{"analysis.self_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.trace_spans", "count"},

	{"scanner.scan_domain_us", "us"},
	{"scanner.queries_per_domain", "count"},

	{"transport.exchange_p50_us", "us"},
	{"transport.exchange_p99_us", "us"},
	{"transport.cache_hit_ratio", "ratio"},
	{"transport.attempts_per_exchange", "count"},
	{"transport.wasted_upstream_ratio", "ratio"},
	{"transport.exchange_hit_us", "us"},
	{"transport.allocs_per_exchange_hit", "count"},
	{"transport.exchange_miss_us", "us"},
	{"transport.allocs_per_exchange_miss", "count"},
	{"transport.cache_insert_us", "us"},
	{"transport.doh_exchange_us", "us"},
	{"transport.dot_exchange_us", "us"},
	{"transport.doq_exchange_us", "us"},

	{"resolver.handle_us", "us"},
	{"resolver.upstream_per_handle", "count"},
	{"resolver.resolve_cold_us", "us"},
	{"resolver.allocs_per_resolve_cold", "count"},
	{"resolver.upstream_per_resolve_cold", "count"},
	{"resolver.resolve_warm_us", "us"},
	{"resolver.allocs_per_resolve_warm", "count"},

	{"dnssec.validate_us", "us"},
	{"dnssec.verify_rrsig_us", "us"},
	{"dnssec.fetches_per_validate", "count"},
	{"dnssec.share_of_resolve_pct", "%"},

	{"providers.handle_us", "us"},
	{"providers.allocs_per_query", "count"},
	{"providers.build_world_ms", "ms"},
	{"authserver.handle_us", "us"},
	{"authserver.allocs_per_query", "count"},

	{"dnswire.pack_ns", "ns"},
	{"dnswire.unpack_ns", "ns"},
	{"dnswire.allocs_per_roundtrip", "count"},

	{"dataset.commit_ms_per_day", "ms"},
	{"dataset.read_merge_ms", "ms"},
	{"dataset.write_json_ms", "ms"},
	{"analysis.report_ms", "ms"},

	{"core.day_pipeline_speedup", "ratio"},
	{"core.hour_pipeline_speedup", "ratio"},
	{"core.day_wall_ms_p50", "ms"},
	{"core.day_wall_ms_max", "ms"},
	{"obs.overhead_cpu_pct", "%"},

	{"workload.engine_ns_per_query", "ns"},
	{"workload.stub_hit_ratio", "ratio"},
}
