package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names and units; TestBenchmarkJSONMatchesDeclared keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd is printed by every untraced run (--trace 0), on every workload.
// Each workload maps "operation" to the request its client sends; see
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p75_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// perLayer is printed by every traced run (--trace 1). A layer the
// workload's traced run does not call reports 0.
var perLayer = []metricDef{
	{"minif.parse_ms", "ms"},
	{"driver.analyze_ms", "ms"},
	{"driver.scheduler_gain", "ratio"},
	{"driver.cache_hits", "count"},
	{"driver.cache_misses", "count"},
	{"driver.hit_ratio", "ratio"},
	{"driver.incremental_ms", "ms"},
	{"driver.recomputed_procs", "count"},
	{"driver.reused_procs", "count"},
	{"modref.analyze_ms", "ms"},
	{"summary.analyze_ms", "ms"},
	{"liveness.full_ms", "ms"},
	{"parallel.parallelize_ms", "ms"},
	{"parallel.reparallelize_ms", "ms"},
	{"parallel.loops_reanalyzed", "count"},
	{"parallel.loops", "count"},
	{"parallel.chosen_loops", "count"},
	{"explorer.profile_ms", "ms"},
	{"session.asserts_accepted", "count"},
	{"session.asserts_rejected", "count"},
	{"session.full_script_indep_share", "ratio"},
	{"exec.compile_ms", "ms"},
	{"exec.seq_run_ms", "ms"},
	{"exec.instructions", "count"},
	{"exec.ns_per_instr", "ns"},
	{"exec.par_run_ms", "ms"},
	{"exec.parallel_loop_runs", "count"},
	{"exec.parallel_workers", "count"},
	{"exec.compiled_worker_views", "count"},
	{"exec.dispatch_us", "us"},
	{"exec.wall_speedup", "ratio"},
	{"exec.vt_speedup", "ratio"},
	{"exec.fallbacks", "count"},
	{"tune.search_ms", "ms"},
	{"tune.runs", "count"},
	{"tune.variants_scored", "count"},
	{"tune.variants_pruned", "count"},
	{"tune.ms_per_run", "ms"},
	{"server.analyze_ms", "ms"},
	{"server.analyze_klines_per_s", "klines/s"},
	{"server.session_create_ms", "ms"},
	{"server.assert_p50_ms", "ms"},
	{"server.assert_p75_ms", "ms"},
	{"server.profile_seq_s", "s"},
	{"server.profile_w2_s", "s"},
	{"server.tune_s", "s"},
	{"server.batch_s", "s"},
	{"server.analyze_overhead_ms", "ms"},
	{"server.assert_overhead_ms", "ms"},
	{"server.profile_overhead_ms", "ms"},
	{"server.shed", "count"},
	{"server.panics", "count"},
	{"cluster.max_worker_share", "ratio"},
	{"cluster.retries", "count"},
	{"cluster.hedges", "count"},
	{"cluster.batch_failures", "count"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.untraced_total_ms", "ms"},
	{"trace.traced_total_ms", "ms"},
	{"client.heap_mb", "MB"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricSet collects raw values by name; emit fills every declared metric,
// 0 where nothing was recorded.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// quantile is the linear-interpolated q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
