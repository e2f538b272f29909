// BenchmarkScale drives the corpus-factory size ladder through the full
// toolchain (generate, parse, analyze, parallelize, incremental
// re-analysis, bytecode execution) and attaches each stage's time as a
// custom metric, so `go test -bench Scale -benchtime=1x | benchjson`
// produces BENCH_scale.json: analysis and execution cost as a function of
// program size, every row reproducible from its recorded (seed, config).
package suifx_test

import (
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/experiments"
)

func BenchmarkScale(b *testing.B) {
	tiers := corpus.SizeLadder()
	if testing.Short() {
		tiers = corpus.QuickLadder()
	}
	for _, tier := range tiers {
		tier := tier
		b.Run(tier.Name, func(b *testing.B) {
			var pt *experiments.ScalePoint
			for i := 0; i < b.N; i++ {
				var err error
				pt, err = experiments.ScaleRun(tier)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(pt.Lines), "lines")
			b.ReportMetric(pt.ParseMs, "parse_ms")
			b.ReportMetric(pt.AnalyzeMs, "analyze_ms")
			b.ReportMetric(pt.DriverAnalyzeMs, "driver_analyze_ms")
			b.ReportMetric(pt.ParallelizeMs, "parallelize_ms")
			b.ReportMetric(pt.IncrementalMs, "incremental_ms")
			b.ReportMetric(pt.ExecMs, "exec_ms")
			b.ReportMetric(float64(pt.ExecOps), "exec_ops")
			b.ReportMetric(float64(pt.ChosenLoops), "chosen_loops")
			b.ReportMetric(float64(pt.Recomputed), "recomputed_procs")
		})
	}
}
