// Parallel bytecode-engine benchmarks, committed as BENCH_parallel.json
// (see EXPERIMENTS.md). Each sub-benchmark times execution alone — the
// plan is derived once, outside the timer — and attaches two speedups
// against the same app's sequential run: the deterministic virtual-time
// speedup (sequential ops over critical-path ops), which is reproducible
// on any core count, and the wall-clock speedup the host actually shows.
package suifx_test

import (
	"strconv"
	"testing"

	"suifx/internal/exec"
	"suifx/internal/experiments"
)

// BenchmarkParallelEngine runs three representative workloads sequentially
// and under their approved plans at 1/2/4/8 workers on the bytecode VM.
// Each timed iteration builds a fresh interpreter (NewWithPlan compiles the
// worker views) and runs it. Sub-benchmark names avoid a trailing -N so
// benchjson's procs-suffix stripping can't eat the worker count.
func BenchmarkParallelEngine(b *testing.B) {
	for _, app := range []string{"mdg", "applu", "hydro"} {
		workers := []int{1, 2, 4, 8}
		pts, err := experiments.ParallelSpeedups(app, workers)
		if err != nil {
			b.Fatal(err)
		}
		var seqNs float64
		b.Run(app+"/seq", func(b *testing.B) {
			prog, _, _, err := experiments.PlanParallel(app, experiments.ParallelRunOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for j := 0; j < b.N; j++ {
				in := exec.New(prog)
				in.Mode = exec.ModeBytecode
				if err := in.Run(); err != nil {
					b.Fatal(err)
				}
			}
			seqNs = float64(b.Elapsed()) / float64(b.N)
		})
		for i, n := range workers {
			pt := pts[i]
			b.Run(app+"/"+strconv.Itoa(n)+"w", func(b *testing.B) {
				prog, plan, _, err := experiments.PlanParallel(app, experiments.ParallelRunOptions{
					Workers: n, Staggered: true, Chunks: 4,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for j := 0; j < b.N; j++ {
					in := exec.NewWithPlan(prog, plan)
					in.Mode = exec.ModeBytecode
					if err := in.Run(); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				b.ReportMetric(pt.VTSpeedup, "vt_speedup")
				b.ReportMetric(float64(pt.CritOps), "crit_ops")
				if ns := float64(b.Elapsed()) / float64(b.N); seqNs > 0 && ns > 0 {
					b.ReportMetric(seqNs/ns, "wall_speedup")
				}
			})
		}
	}
}
