package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/modref"
	"suifx/internal/parallel"
	"suifx/internal/region"
	"suifx/internal/server"
	"suifx/internal/summary"
)

// analyzeCold sends POST /v1/analyze with the inline source of distinct
// corpus programs, so every request misses the driver cache.
type analyzeCold struct {
	seed  int64
	st    *stack
	progs []*corpus.Program
	sent  []analyzeSent
}

// analyzeSent keeps what the checks read of one reply.
type analyzeSent struct {
	prog  *corpus.Program
	ms    float64
	stats parallel.Stats
	loops []loopVerdict
}

type loopVerdict struct {
	id     string
	chosen bool
}

func setupAnalyzeCold(seed int64, sz sizes) (workload, error) {
	progs := genPrograms(seed, "analyze-cold", sz.analyzeMax, sz.analyzeLines)
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	w := &analyzeCold{seed: seed, st: st, progs: progs}
	if err := warmUp(st, seed, 2, sz.analyzeLines); err != nil {
		st.close()
		return nil, err
	}
	return w, nil
}

// warmUp analyzes n programs from a seed stream of its own, so the
// listener, the connections and the heap are in their steady state before
// timing.
func warmUp(st *stack, seed int64, n, lines int) error {
	for _, p := range genPrograms(seed, "warm-up", n, lines) {
		var resp server.AnalyzeResponse
		if err := st.postJSON("/v1/analyze", server.AnalyzeRequest{
			SourceRef: server.SourceRef{Name: p.Name, Source: p.Source},
		}, &resp); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (w *analyzeCold) close() { w.st.close() }

func (w *analyzeCold) drive(deadline time.Time, rec *recorder, m metricSet) error {
	return w.st.countServer(m, func() error {
		for _, p := range w.progs {
			if !time.Now().Before(deadline) {
				break
			}
			c, err := w.st.post("/v1/analyze", server.AnalyzeRequest{
				SourceRef: server.SourceRef{Name: p.Name, Source: p.Source},
			})
			if !rec.note("analyze "+p.Name, c, err) {
				continue
			}
			var resp server.AnalyzeResponse
			if err := json.Unmarshal(c.body, &resp); err != nil {
				return fmt.Errorf("analyze %s: decode: %w", p.Name, err)
			}
			s := analyzeSent{prog: p, ms: ms(c.dur), stats: resp.Stats}
			for _, l := range resp.Loops {
				s.loops = append(s.loops, loopVerdict{l.ID, l.Chosen})
			}
			w.sent = append(w.sent, s)
		}
		var lat []float64
		lines := 0
		for _, s := range w.sent {
			lat = append(lat, s.ms)
			lines += strings.Count(s.prog.Source, "\n")
		}
		m["server.analyze_ms"] = median(lat)
		if t := sum(lat); t > 0 {
			m["server.analyze_klines_per_s"] = float64(lines) / t
		}
		return nil
	})
}

// scalarOracle is the dead-at-exit oracle ParallelizeWith builds for itself
// when given none: scalar liveness only.
func scalarOracle(live *liveness.Info) func(*region.Region, *ir.Symbol) bool {
	return func(r *region.Region, sym *ir.Symbol) bool {
		return !sym.IsArray() && live.DeadAtExit(r, sym)
	}
}

// replay analyzes the sent programs again on a fresh cache, one span per
// layer. The "analyze" root holds the server's own path: driver, liveness
// and parallelize. Parse, modref and sequential summary run standalone
// beside it, under a root of their own.
func (w *analyzeCold) replay(more func(int) bool, tr *tracer, m metricSet) (int, error) {
	cache := driver.NewCacheCap(cacheCap)
	var parse, mr, seqSum, drv, live, par, gain, overhead []float64
	for i, s := range w.sent {
		if i > 0 && !more(i) {
			break
		}
		p := s.prog
		alone := tr.root("analyze.standalone")
		var prog *ir.Program
		var err error
		parse = append(parse, tr.call(alone, "minif.Parse", func() {
			prog, err = minif.Parse(p.Name, p.Source)
		}).ms())
		if err != nil {
			return 0, fmt.Errorf("traced parse %s: %w", p.Name, err)
		}
		mr = append(mr, tr.call(alone, "modref.Analyze", func() { modref.Analyze(prog) }).ms())
		seqSum = append(seqSum, tr.call(alone, "summary.Analyze", func() { summary.Analyze(prog) }).ms())
		tr.close(alone)

		root := tr.root("analyze")
		var res *driver.Result
		d := tr.call(root, "driver.Cache.AnalyzeCtx", func() {
			res, err = cache.AnalyzeCtx(context.Background(), p.Name, p.Source, driver.Options{})
		}).ms()
		if err != nil {
			return 0, fmt.Errorf("traced analyze %s: %w", p.Name, err)
		}
		var info *liveness.Info
		l := tr.call(root, "liveness.Analyze", func() { info = liveness.Analyze(res.Sum, liveness.Full) }).ms()
		var pr *parallel.Result
		pz := tr.call(root, "parallel.ParallelizeWith", func() {
			pr = parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true, DeadAtExit: scalarOracle(info)})
		}).ms()
		tr.close(root)

		stats := pr.Stats()
		if stats != s.stats {
			return 0, fmt.Errorf("%s: traced verdicts %+v differ from the server's %+v", p.Name, stats, s.stats)
		}
		if i == 0 {
			m["parallel.loops"] = float64(stats.TotalLoops)
			m["parallel.chosen_loops"] = float64(stats.ChosenN)
		}
		drv, live, par = append(drv, d), append(live, l), append(par, pz)
		if d > parse[i] {
			gain = append(gain, seqSum[i]/(d-parse[i]))
		}
		overhead = append(overhead, s.ms-(d+l+pz))
	}
	cs := cache.Stats()
	m["minif.parse_ms"] = median(parse)
	m["modref.analyze_ms"] = median(mr)
	m["summary.analyze_ms"] = median(seqSum)
	m["driver.analyze_ms"] = median(drv)
	m["driver.scheduler_gain"] = median(gain)
	m["driver.cache_hits"] = float64(cs.Hits)
	m["driver.cache_misses"] = float64(cs.Misses)
	m["liveness.full_ms"] = median(live)
	m["parallel.parallelize_ms"] = median(par)
	m["server.analyze_overhead_ms"] = median(overhead)
	return len(drv), nil
}

// check reanalyzes a sample of the programs, requires the replies' loop
// verdicts, and runs their chosen loops as a two-worker plan against a
// sequential tree-walker run.
func (w *analyzeCold) check() error {
	if len(w.sent) == 0 {
		return fmt.Errorf("analyze-cold: no request succeeded")
	}
	idx := sample(w.seed, len(w.sent))
	return forEachParallel(len(idx), func(i int) error {
		s := w.sent[idx[i]]
		prog, err := minif.Parse(s.prog.Name, s.prog.Source)
		if err != nil {
			return err
		}
		pr := parallel.ParallelizeWith(driver.Analyze(prog, driver.Options{}), parallel.Config{UseReductions: true})
		if err := sameChosen(pr, s.loops); err != nil {
			return fmt.Errorf("%s: %w", s.prog.Name, err)
		}
		if _, err := validatePlan(prog, pr); err != nil {
			return fmt.Errorf("%s: %w", s.prog.Name, err)
		}
		return nil
	})
}

// sameChosen checks the response's loop verdicts against a result.
func sameChosen(pr *parallel.Result, loops []loopVerdict) error {
	if len(loops) != len(pr.Ordered) {
		return fmt.Errorf("response lists %d loops, analysis has %d", len(loops), len(pr.Ordered))
	}
	for i, li := range pr.Ordered {
		if loops[i].id != li.ID() || loops[i].chosen != li.Chosen {
			return fmt.Errorf("loop %d: response %s chosen=%v, analysis %s chosen=%v",
				i, loops[i].id, loops[i].chosen, li.ID(), li.Chosen)
		}
	}
	return nil
}
