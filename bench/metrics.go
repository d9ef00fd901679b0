package main

// metricDef is one metric as BENCHMARK.json declares it.  Bound is the
// share of the parent's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics every workload reports with tracing off.
// Each has one meaning per workload.  A bound must hold the spread of
// ten seeds' runs as well as the drift of a set's median, so each is
// set from the committed result sets; README.md gives the reasons.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.2},
	{"throughput", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"tail_ms", "ms", "lower", 0.25},
	{"text_growth", "ratio", "lower", 0.05},
	{"edited_insts_ratio", "ratio", "lower", 0.1},
}

// flavours are the verify workload's program shapes.
var flavours = []string{"medium", "loopheavy", "callheavy", "memhot"}

// perLayer are the metrics every workload reports with tracing on.  A
// layer the workload does not exercise reports 0.
var perLayer = func() []metricDef {
	ms := func(n string) metricDef { return metricDef{Name: n, Unit: "ms", Better: "lower"} }
	count := func(n, better string) metricDef { return metricDef{Name: n, Unit: "count", Better: better} }
	defs := []metricDef{
		ms("binfile.read_ms"),
		ms("core.load_ms"),
		count("core.load_allocs", "lower"),
		count("core.routines", "higher"),
		count("core.hidden", "higher"),
		ms("pipeline.analyze_ms"),
		count("pipeline.analyze_allocs", "lower"),
		ms("cfg.build_ms"),
		count("cfg.build_allocs", "lower"),
		count("cfg.blocks", "lower"),
		count("cfg.edges", "lower"),
		count("cfg.ijumps", "lower"),
		count("cfg.ijumps_unresolved", "lower"),
		ms("dataflow.liveness_ms"),
		count("dataflow.liveness_allocs", "lower"),
		ms("dataflow.dominators_ms"),
		ms("dataflow.loops_ms"),
		ms("qpt.instrument_ms"),
		count("qpt.instrument_allocs", "lower"),
		count("qpt.edits", "lower"),
		count("core.snippet.scavenged", "higher"),
		count("core.snippet.spilled", "lower"),
		count("core.snippet.cc_live", "lower"),
		ms("core.build_ms"),
		count("core.build_allocs", "lower"),
		ms("binfile.write_ms"),
		ms("verify.edit_ms"),
		ms("sim.load_ms"),
		{Name: "sim.interp.minsts_s.medium", Unit: "Minst/s", Better: "higher"},
		{Name: "sim.routine.minsts_s", Unit: "Minst/s", Better: "higher"},
		{Name: "sim.chained.minsts_s", Unit: "Minst/s", Better: "higher"},
	}
	for _, f := range flavours {
		for _, e := range []string{"translated", "chained", "routine"} {
			defs = append(defs, metricDef{Name: "sim." + e + ".minsts_s." + f, Unit: "Minst/s", Better: "higher"})
		}
		defs = append(defs,
			count("sim.chained.allocs."+f, "lower"),
			count("sim.routine.allocs."+f, "lower"),
			metricDef{Name: "sim.chained.chain_hit_pct." + f, Unit: "%", Better: "higher"},
			metricDef{Name: "sim.chained.ic_hit_pct." + f, Unit: "%", Better: "higher"},
			count("sim.chained.traces."+f, "higher"),
			count("sim.routine.compiled."+f, "higher"),
			count("sim.routine.deopts."+f, "lower"),
		)
	}
	defs = append(defs,
		ms("eeld.queue_ms.p50"),
		ms("eeld.queue_ms.p99"),
		ms("eeld.run_ms.p50"),
		ms("eeld.run_ms.p99"),
		ms("eeld.work_ms.p50"),
		ms("eeld.decode_open_ms.p50"),
		ms("eeld.transport_ms.p50"),
		ms("eeld.transport_ms.p99"),
		ms("eeld.analyze_run_ms.p50"),
		ms("eeld.instrument_run_ms.p50"),
		metricDef{Name: "pipeline.cache.hit_rate", Unit: "ratio", Better: "higher"},
		count("pipeline.cache.disk_hits", "higher"),
		count("pipeline.cache.evictions", "lower"),
		count("pipeline.disk.stores", "lower"),
		count("pipeline.disk.evictions", "lower"),
		ms("eeld.restart_pass_ms"),
		metricDef{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
		ms("bench.calibration_ms"),
	)
	return defs
}()
