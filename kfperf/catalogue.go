package main

import "slices"

// metricKind separates the end-to-end metrics (untraced runs) from the
// per-layer ones (the traced run). The gated end-to-end metrics are the
// ones BENCHMARK.json bounds and the result line carries; the reported
// ones are printed beside them but left ungated, because on the 2-vCPU
// development host their run-to-run spread exceeded the largest bound a
// gated metric may have (see README.md).
type metricKind int

const (
	kindEndToEnd metricKind = iota
	kindReported
	kindLayer
)

// move names an end-to-end metric, and the workload on which it shows,
// that a per-layer metric is expected to move.
type move struct{ Metric, Workload string }

// metricDef is one entry of the benchmark's metric list. BENCHMARK.json
// carries the same names, units and directions (a test keeps the two in
// step); the workloads, the layer and the moves live only here, because
// BENCHMARK.json's entries have a fixed set of keys.
type metricDef struct {
	Name, Unit, Better string
	kind               metricKind
	on                 []string // workloads that report it; empty for every workload
	layer              string   // module measured, for per-layer metrics
	moves              []move   // empty for the harness's own checks
}

// appliesTo tells whether workload w reports the metric. The gated
// end-to-end and the per-layer metrics apply to every workload.
func (d metricDef) appliesTo(w string) bool { return len(d.on) == 0 || slices.Contains(d.on, w) }

func e2e(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, kind: kindEndToEnd}
}

func reported(name, unit, better string, on ...string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, kind: kindReported, on: on}
}

func layer(layerName, name, unit, better string, moves ...move) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better, kind: kindLayer, layer: layerName, moves: moves}
}

const (
	fed   = "jacobi-fed"
	ipc   = "jacobi-ipc"
	mixed = "serve-mixed"
)

var catalogue = []metricDef{
	e2e("setup_s", "s", "lower"),
	e2e("peak_rss_mb", "MB", "lower"),

	reported("cpu_ms_per_op", "ms", "lower"),
	reported("setup_wall_s", "s", "lower"),
	reported("run_ms.p50", "ms", "lower", fed, ipc),
	reported("run_ms.p90", "ms", "lower", fed, ipc),
	reported("req_ms.p50.low", "ms", "lower", mixed),
	reported("req_ms.p90.low", "ms", "lower", mixed),
	reported("req_ms.p50.high", "ms", "lower", mixed),
	reported("req_ms.p90.high", "ms", "lower", mixed),
	reported("max_rps", "1/s", "higher", mixed),

	layer("core", "core.noop_ms", "ms", "lower", move{"run_ms.p50", ipc}, move{"run_ms.p50", fed}),
	layer("core", "core.boundary_ms", "ms", "lower", move{"run_ms.p50", ipc}),
	layer("core", "core.allocs_per_op", "count", "lower", move{"cpu_ms_per_op", fed}, move{"run_ms.p90", fed}, move{"peak_rss_mb", fed}),
	layer("core", "core.kb_per_op", "KB", "lower", move{"cpu_ms_per_op", fed}, move{"run_ms.p90", fed}, move{"peak_rss_mb", fed}),
	layer("core", "core.gc_per_op", "count", "lower", move{"cpu_ms_per_op", fed}, move{"run_ms.p90", fed}, move{"peak_rss_mb", fed}),
	layer("machine", "machine.msgs_per_op", "count", "lower", move{"run_ms.p50", fed}),
	layer("machine", "machine.kb_per_op", "KB", "lower", move{"run_ms.p50", fed}),
	layer("machine", "machine.link_msgs_per_op", "count", "lower", move{"run_ms.p50", ipc}),
	layer("machine", "machine.link_kb_per_op", "KB", "lower", move{"run_ms.p50", ipc}),
	layer("machine", "machine.pingpong_us.calendar", "us", "lower", move{"run_ms.p50", fed}),
	layer("machine", "machine.pingpong_us.goroutine", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("darray", "darray.halo_us", "us", "lower", move{"run_ms.p50", fed}),
	layer("kf", "kf.sweep_us", "us", "lower", move{"run_ms.p50", fed}, move{"cpu_ms_per_op", fed}),
	layer("wire", "wire.encode_ns", "ns", "lower", move{"run_ms.p50", ipc}),
	layer("wire", "wire.decode_ns", "ns", "lower", move{"run_ms.p50", ipc}),
	layer("machine", "ipc.iter_us", "us", "lower", move{"run_ms.p50", ipc}, move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.queue_ms.p50", "ms", "lower", move{"req_ms.p90.high", mixed}),
	layer("serve", "serve.run_ms.p50", "ms", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.overhead_ms.p50", "ms", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.hit_frac", "ratio", "higher", move{"req_ms.p90.low", mixed}, move{"req_ms.p90.high", mixed}),
	layer("serve", "serve.hit_frac.ipc", "ratio", "higher", move{"req_ms.p90.low", mixed}, move{"req_ms.p90.high", mixed}),
	layer("serve", "serve.misses", "count", "lower", move{"req_ms.p90.high", mixed}, move{"peak_rss_mb", mixed}),
	layer("serve", "serve.evictions", "count", "lower", move{"req_ms.p90.high", mixed}, move{"peak_rss_mb", mixed}),
	layer("serve", "serve.fleets", "count", "lower", move{"req_ms.p90.high", mixed}, move{"peak_rss_mb", mixed}),
	layer("progs", "progs.build_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.acquire_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.checkout_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.miss_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.return_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("serve", "serve.encode_us", "us", "lower", move{"req_ms.p50.low", mixed}),
	layer("harness", "gen.lag_ms.p90", "ms", "lower"),
	layer("harness", "host.calib_ms", "ms", "lower"),
	layer("harness", "trace.overhead_frac", "ratio", "lower"),
}
