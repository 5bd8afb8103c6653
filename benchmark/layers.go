package main

import (
	"runtime"
	"strings"
	"time"
)

// perLayer are the metrics the traced run prints, as BENCHMARK.json names
// them. A layer a workload never reaches reports 0. README.md pairs each
// with the end-to-end metric and workload it should move.
var perLayer = []metricDef{
	{"bench.build_s", "s"},

	{"rc.node_visits_per_op", "count"},
	{"rc.full_pass_share", "ratio"},
	{"rc.cutover_share", "ratio"},
	{"rc.full_ns_per_node", "ns"},
	{"rc.cone_ns_per_node", "ns"},
	{"rc.time_share_est", "ratio"},

	{"core.solve_s.c432", "s"},
	{"core.solve_s.c880", "s"},
	{"core.solve_s.c1908", "s"},
	{"core.solve_s.c3540", "s"},
	{"core.solve_s.c5315", "s"},
	{"core.solve_s.c7552", "s"},
	{"core.solve_s.grid32x24", "s"},
	{"core.iterations_per_op", "count"},
	{"core.lrs_sweeps_per_iter", "count"},
	{"core.hyst_trips_per_op", "count"},
	{"core.iter_ms_p50", "ms"},
	{"core.shard_speedup", "x"},

	{"sweep.call_s", "s"},
	{"sweep.cells_per_s", "1/s"},
	{"sweep.lrs_sweeps_per_cell", "count"},
	{"sweep.busy_ratio", "ratio"},

	{"variation.mc_samples_per_s", "1/s"},
	{"variation.corners_per_s", "1/s"},
	{"variation.lockstep_speedup", "x"},

	{"service.handler_ms_p50", "ms"},
	{"service.handler_ms_tail", "ms"},
	{"service.handler_ms_p50.solve", "ms"},
	{"service.handler_ms_p50.dedup", "ms"},
	{"service.handler_ms_p50.sweep", "ms"},
	{"service.handler_ms_p50.montecarlo", "ms"},
	{"service.overhead_ms_p50", "ms"},
	{"service.client_wait_ms_p50", "ms"},
	{"service.client_wait_ms_tail", "ms"},
	{"service.response_kb_p50", "KB"},
	{"service.dedup_hit_ratio", "ratio"},
	{"service.overload_sheds", "count"},

	{"store.syncs_per_op", "count"},
	{"store.sync_ms_p50", "ms"},
	{"store.sync_ms_tail", "ms"},
	{"store.write_kb_per_op", "KB"},
	{"store.busy_ms_per_op", "ms"},

	{"process.cpu_util", "ratio"},
	{"process.gc_cpu_share", "ratio"},
	{"process.alloc_mb_per_op", "MB"},
	{"process.gc_pause_ms_p99", "ms"},

	{"harness.trace_overhead_ratio", "x"},
	{"harness.op_self_share", "ratio"},
	{"harness.fail_ratio", "ratio"},
	{"harness.slo_miss_ratio", "ratio"},

	{"quality.area_vs_ref", "ratio"},
}

// layerValue computes one per-layer metric from what the traced run's hooks
// accumulated (raw keys in acc) and from the runner's own records. A
// workload's env may also set a metric's final value directly under its
// name, which takes precedence.
func (r *runner) layerValue(name string) float64 {
	a := r.acc
	if v, ok := a.final(name); ok {
		return v
	}
	tracedOps := a.sum("n.traced_ops")
	kb := func(b float64) float64 { return b / 1024 }
	tailOf := func(key string) float64 {
		v, _, _ := tail(a.values(key))
		return v
	}
	switch name {
	case "bench.build_s":
		return r.buildSec

	case "rc.node_visits_per_op":
		return ratio(a.sum("rc.visits"), a.sum("rc.visit_solves"))
	case "rc.full_pass_share":
		return ratio(a.sum("rc.full_rec"), a.sum("rc.full_rec")+a.sum("rc.inc_rec"))
	case "rc.cutover_share":
		return ratio(a.sum("rc.cutover_rec"), a.sum("rc.full_rec")+a.sum("rc.inc_rec"))
	case "rc.full_ns_per_node":
		return ratio(a.sum("rc.full_ns"), a.sum("rc.full_visits"))
	case "rc.cone_ns_per_node":
		return ratio(a.sum("rc.cone_ns"), a.sum("rc.cone_visits"))
	case "rc.time_share_est":
		nsPerVisit := ratio(a.sum("rc.full_ns"), a.sum("rc.full_visits"))
		return ratio(a.sum("rc.visits")*nsPerVisit, a.sum("core.solve_ns"))

	case "core.iterations_per_op":
		return ratio(a.sum("core.iterations"), a.sum("core.solved"))
	case "core.lrs_sweeps_per_iter":
		return ratio(a.sum("core.lrs_sweeps"), a.sum("core.iterations"))
	case "core.hyst_trips_per_op":
		return ratio(a.sum("core.hyst_trips"), a.sum("core.hyst_solves"))
	case "core.iter_ms_p50":
		return median(a.values("core.iter_ms"))

	case "sweep.call_s":
		return ratio(a.sum("sweep.call_s"), a.sum("sweep.calls"))
	case "sweep.cells_per_s":
		return ratio(a.sum("sweep.cells"), a.sum("sweep.call_s"))
	case "sweep.lrs_sweeps_per_cell":
		return ratio(a.sum("sweep.lrs_sweeps"), a.sum("sweep.cells"))
	case "sweep.busy_ratio":
		return ratio(a.sum("sweep.cell_solve_s"), a.sum("sweep.width_s"))

	case "variation.mc_samples_per_s":
		return ratio(a.sum("mc.samples"), a.sum("mc.call_s"))
	case "variation.corners_per_s":
		return ratio(a.sum("corners.cells"), a.sum("corners.call_s"))

	case "service.handler_ms_p50":
		return median(a.values("svc.handler_ms"))
	case "service.handler_ms_tail":
		return tailOf("svc.handler_ms")
	case "service.handler_ms_p50.solve", "service.handler_ms_p50.dedup",
		"service.handler_ms_p50.sweep", "service.handler_ms_p50.montecarlo":
		return median(a.values("svc.handler_ms." + name[len("service.handler_ms_p50."):]))
	case "service.overhead_ms_p50":
		return median(a.values("svc.overhead_ms"))
	case "service.client_wait_ms_p50":
		return median(a.values("svc.client_wait_ms"))
	case "service.client_wait_ms_tail":
		return tailOf("svc.client_wait_ms")
	case "service.response_kb_p50":
		return kb(median(a.values("svc.response_bytes")))

	case "store.syncs_per_op":
		return ratio(float64(len(a.values("store.sync_ms"))), tracedOps)
	case "store.sync_ms_p50":
		return median(a.values("store.sync_ms"))
	case "store.sync_ms_tail":
		return tailOf("store.sync_ms")
	case "store.write_kb_per_op":
		return kb(ratio(a.sum("store.write_bytes"), tracedOps))
	case "store.busy_ms_per_op":
		return ratio(a.sum("store.busy_ns")/1e6, tracedOps)

	case "process.cpu_util":
		return ratio(r.proc.cpu.Seconds(), r.proc.wall.Seconds()*float64(runtime.GOMAXPROCS(0)))
	case "process.gc_cpu_share":
		return r.proc.gcShare
	case "process.alloc_mb_per_op":
		return ratio(r.proc.allocBytes/1e6, float64(len(r.ops)))
	case "process.gc_pause_ms_p99":
		return r.proc.pauseP99Sec * 1e3

	case "harness.trace_overhead_ratio":
		return r.traceOverhead()
	case "harness.op_self_share":
		return r.opSelfShare()
	case "harness.fail_ratio":
		return ratio(float64(r.failedOps()), float64(len(r.ops)))
	case "harness.slo_miss_ratio":
		return r.sloMissRatio()

	case "quality.area_vs_ref":
		return ratio(r.area, r.refArea)
	}
	if strings.HasPrefix(name, "core.solve_s.") {
		return mean(a.values(name))
	}
	return 0
}

func (r *runner) failedOps() int {
	n := 0
	for _, o := range r.ops {
		if o.failed {
			n++
		}
	}
	return n
}

// sloMissRatio is the share of ops that failed or ran past the workload's
// latency limit (the service mix's SLO; the other workloads have none, so
// only failures count).
func (r *runner) sloMissRatio() float64 {
	limit := time.Duration(0)
	if r.cfg.workload == wServiceMix {
		limit = serviceFull.SLO
	}
	miss := 0
	for _, o := range r.ops {
		if o.failed || (limit > 0 && o.latency > limit) {
			miss++
		}
	}
	return ratio(float64(miss), float64(len(r.ops)))
}

// opSelfShare is the share of traced op time that no instrumented layer
// below the harness covers: client transport for HTTP ops, solver set-up
// and teardown for library calls.
func (r *runner) opSelfShare() float64 {
	spans := r.tr.snapshot()
	self := selfTimes(spans)
	var selfOp, totalOp time.Duration
	for _, s := range spans {
		if s.Name == "op" {
			selfOp += self[s.ID]
			totalOp += s.End - s.Start
		}
	}
	return ratio(float64(selfOp), float64(totalOp))
}
