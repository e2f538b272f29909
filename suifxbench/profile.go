package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/machine"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/server"
	"suifx/internal/tune"
	"suifx/internal/workloads"
)

// profileTune sends rounds of POST /v1/profile (sequential and at workers
// 2) and POST /v1/tune over built-in workloads, whose analyses set-up has
// already cached. The seed orders each round's requests. The timed
// operation is the round: single requests range from 15 ms to 4 s, so
// percentiles over them would jump between request kinds.
type profileTune struct {
	st     *stack
	seed   int64
	sz     sizes
	rounds [][]profileSent
}

type profileReq struct {
	kind string // "seq", "w2" or "tune"
	prog string
}

// profileSent keeps what the checks read of one reply: a sequential
// profile's operation count, a tune reply's bytes.
type profileSent struct {
	req      profileReq
	ms       float64
	totalOps int64
	body     []byte
}

func roundOrder(seed int64, sz sizes, round int) []profileReq {
	var reqs []profileReq
	for _, p := range sz.profile {
		reqs = append(reqs, profileReq{"seq", p}, profileReq{"w2", p})
	}
	for _, p := range sz.tune {
		reqs = append(reqs, profileReq{"tune", p})
	}
	rng := rand.New(rand.NewSource(seed*1000003 + int64(round)))
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

func (r profileReq) send(st *stack) (call, error) {
	switch r.kind {
	case "seq":
		return st.post("/v1/profile", server.ProfileRequest{SourceRef: server.SourceRef{Workload: r.prog}})
	case "w2":
		return st.post("/v1/profile", server.ProfileRequest{SourceRef: server.SourceRef{Workload: r.prog}, Workers: 2})
	}
	return st.post("/v1/tune", server.TuneRequest{SourceRef: server.SourceRef{Workload: r.prog}})
}

// setupProfileTune warms the server: one sequential profile analyzes and
// compiles every program. A two-worker run compiles its worker views
// afresh each time, so it has nothing to warm.
func setupProfileTune(seed int64, sz sizes) (workload, error) {
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	w := &profileTune{st: st, seed: seed, sz: sz}
	for _, p := range append(append([]string(nil), sz.profile...), sz.tune...) {
		c, err := profileReq{"seq", p}.send(st)
		if err = statusErr(c, err); err != nil {
			st.close()
			return nil, fmt.Errorf("warm %s: %w", p, err)
		}
	}
	return w, nil
}

func (w *profileTune) close() { w.st.close() }

// drive runs whole rounds: another starts only if it should end before
// the deadline at the pace of the rounds so far.
func (w *profileTune) drive(deadline time.Time, rec *recorder, m metricSet) error {
	return w.st.countServer(m, func() error {
		start := time.Now()
		for {
			if !roomForAnother(start, len(w.rounds), deadline) {
				break
			}
			var round []profileSent
			var errs []error
			roundStart := time.Now()
			for _, r := range roundOrder(w.seed, w.sz, len(w.rounds)) {
				c, err := r.send(w.st)
				if err = statusErr(c, err); err != nil {
					errs = append(errs, fmt.Errorf("%s %s: %w", r.kind, r.prog, err))
					continue
				}
				s := profileSent{req: r, ms: ms(c.dur)}
				switch r.kind {
				case "seq":
					var resp server.ProfileResponse
					if err := json.Unmarshal(c.body, &resp); err != nil {
						return fmt.Errorf("decode profile %s: %w", r.prog, err)
					}
					s.totalOps = resp.TotalOps
				case "tune":
					s.body = c.body
				}
				round = append(round, s)
			}
			rec.op("round", time.Since(roundStart), errors.Join(errs...))
			w.rounds = append(w.rounds, round)
		}
		var seq, w2, tn []float64
		for _, round := range w.rounds {
			totals := map[string]float64{}
			for _, s := range round {
				totals[s.req.kind] += s.ms / 1000
			}
			seq, w2, tn = append(seq, totals["seq"]), append(w2, totals["w2"]), append(tn, totals["tune"])
		}
		m["server.profile_seq_s"] = median(seq)
		m["server.profile_w2_s"] = median(w2)
		m["server.tune_s"] = median(tn)
		return nil
	})
}

func workloadSource(name string) (string, error) {
	for _, w := range workloads.All() {
		if w.Name == name {
			return w.Source, nil
		}
	}
	return "", fmt.Errorf("no built-in workload %q", name)
}

// replay runs the first round once, whatever more says, so its counts
// repeat exactly: on a cache of the benchmark's own, warmed like the
// server's. It then times compilation on fresh parses.
func (w *profileTune) replay(_ func(int) bool, tr *tracer, m metricSet) (int, error) {
	cache := driver.NewCache()
	srcs := map[string]string{}
	round := w.rounds[0]
	for _, s := range round {
		if srcs[s.req.prog] != "" {
			continue
		}
		src, err := workloadSource(s.req.prog)
		if err != nil {
			return 0, err
		}
		res, err := cache.AnalyzeCtx(context.Background(), s.req.prog, src, driver.Options{})
		if err != nil {
			return 0, err
		}
		srcs[s.req.prog] = src
		// Compile, as set-up's sequential profile did on the server.
		in := exec.New(res.Prog)
		in.MaxOps = maxOps
		if err := in.Run(); err != nil {
			return 0, fmt.Errorf("warm %s: %w", s.req.prog, err)
		}
	}
	c0, t0, cs0 := exec.ReadCounters(), tune.ReadCounters(), cache.Stats()
	var seqMs, parMs, searchMs float64
	var overhead []float64
	var instr, ops, crit, parLoopRuns, parWorkers, views int64
	for _, s := range round {
		root := tr.root("request." + s.req.kind)
		var res *driver.Result
		var err error
		a := tr.call(root, "driver.Cache.AnalyzeCtx", func() {
			res, err = cache.AnalyzeCtx(context.Background(), s.req.prog, srcs[s.req.prog], driver.Options{})
		}).ms()
		if err != nil {
			return 0, err
		}
		switch s.req.kind {
		case "seq":
			before := exec.ReadCounters()
			in := exec.New(res.Prog)
			in.MaxOps = maxOps
			exec.NewProfiler(in)
			d := tr.call(root, "exec.Interp.Run", func() { err = in.Run() }).ms()
			instr += exec.ReadCounters().Instructions - before.Instructions
			seqMs += d
			overhead = append(overhead, s.ms-(a+d))
		case "w2":
			var plan *exec.ParallelPlan
			tr.call(root, "parallel.ParallelizeWith+BuildPlan", func() {
				plan = parallel.BuildPlan(parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true}), 2)
			})
			before := exec.ReadCounters()
			in := exec.NewWithPlan(res.Prog, plan)
			in.MaxOps = maxOps
			exec.NewProfiler(in)
			parMs += tr.call(root, "exec.Interp.Run[w2]", func() { err = in.Run() }).ms()
			after := exec.ReadCounters()
			parLoopRuns += after.ParallelLoopRuns - before.ParallelLoopRuns
			parWorkers += after.ParallelWorkers - before.ParallelWorkers
			views += after.CompiledViews - before.CompiledViews
			ops += in.Ops()
			crit += in.CriticalPathOps()
		case "tune":
			var pr *parallel.Result
			tr.call(root, "parallel.ParallelizeWith", func() {
				pr = parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true})
			})
			searchMs += tr.call(root, "tune.Search", func() {
				_, err = tune.Search(context.Background(), pr, tune.Config{
					MaxDepth: 1, MaxOps: maxOps, Model: machine.AlphaServer8400(),
				})
			}).ms()
		}
		tr.close(root)
		if err != nil {
			return 0, fmt.Errorf("traced %s %s: %w", s.req.kind, s.req.prog, err)
		}
	}
	c1, t1, cs1 := exec.ReadCounters(), tune.ReadCounters(), cache.Stats()
	m["driver.cache_hits"] = float64(cs1.Hits - cs0.Hits)
	m["driver.cache_misses"] = float64(cs1.Misses - cs0.Misses)
	if n := cs1.Hits - cs0.Hits + cs1.Misses - cs0.Misses; n > 0 {
		m["driver.hit_ratio"] = float64(cs1.Hits-cs0.Hits) / float64(n)
	}

	// Compilation: the first run on a fresh parse minus the median of three
	// warm runs.
	var compile float64
	for _, p := range w.sz.profile {
		src, err := workloadSource(p)
		if err != nil {
			return 0, err
		}
		prog, err := minif.Parse(p, src)
		if err != nil {
			return 0, err
		}
		run := func() {
			if e := exec.New(prog).Run(); e != nil {
				err = e
			}
		}
		root := tr.root("exec.compile")
		first := tr.call(root, "exec.Interp.Run[first]", run).ms()
		var warm []float64
		for k := 0; k < 3; k++ {
			warm = append(warm, tr.call(root, "exec.Interp.Run[warm]", run).ms())
		}
		tr.close(root)
		if err != nil {
			return 0, fmt.Errorf("compile %s: %w", p, err)
		}
		compile += first - median(warm)
	}

	m["exec.compile_ms"] = compile
	m["exec.seq_run_ms"] = seqMs
	m["exec.instructions"] = float64(instr)
	if instr > 0 {
		m["exec.ns_per_instr"] = seqMs * 1e6 / float64(instr)
	}
	m["exec.par_run_ms"] = parMs
	m["exec.parallel_loop_runs"] = float64(parLoopRuns)
	m["exec.parallel_workers"] = float64(parWorkers)
	m["exec.compiled_worker_views"] = float64(views)
	if parLoopRuns > 0 {
		m["exec.dispatch_us"] = (parMs - seqMs) * 1000 / float64(parLoopRuns)
	}
	if parMs > 0 {
		m["exec.wall_speedup"] = seqMs / parMs
	}
	if crit > 0 {
		m["exec.vt_speedup"] = float64(ops) / float64(crit)
	}
	m["exec.fallbacks"] = float64(c1.FallbackMode + c1.FallbackHooks + c1.FallbackAnalyzers -
		c0.FallbackMode - c0.FallbackHooks - c0.FallbackAnalyzers)
	runs := t1.Runs - t0.Runs
	m["tune.search_ms"] = searchMs
	m["tune.runs"] = float64(runs)
	m["tune.variants_scored"] = float64(t1.Scored - t0.Scored)
	m["tune.variants_pruned"] = float64(t1.Pruned - t0.Pruned)
	if runs > 0 {
		m["tune.ms_per_run"] = searchMs / float64(runs)
	}
	m["server.profile_overhead_ms"] = median(overhead)
	return 1, nil
}

// check compares every sequential profile's operation count with a
// tree-walker run, validates each program's chosen loops as a two-worker
// plan, and requires identical tune requests to answer byte-identically.
func (w *profileTune) check() error {
	if len(w.rounds) == 0 || len(w.rounds[0]) == 0 {
		return fmt.Errorf("profile-tune: no request succeeded")
	}
	cache := driver.NewCache()
	progs := w.sz.profile
	treeOps := make([]int64, len(progs))
	err := forEachParallel(len(progs), func(i int) error {
		src, err := workloadSource(progs[i])
		if err != nil {
			return err
		}
		res, err := cache.AnalyzeCtx(context.Background(), progs[i], src, driver.Options{})
		if err != nil {
			return err
		}
		pr := parallel.ParallelizeWith(res.Sum, parallel.Config{UseReductions: true})
		if treeOps[i], err = validatePlan(res.Prog, pr); err != nil {
			return fmt.Errorf("%s: %w", progs[i], err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	want := map[string]int64{}
	for i, p := range progs {
		want[p] = treeOps[i]
	}
	tunes := map[string][]byte{}
	cheapest, cheapestMs := "", 0.0
	for _, round := range w.rounds {
		for _, s := range round {
			switch s.req.kind {
			case "seq":
				if s.totalOps != want[s.req.prog] {
					return fmt.Errorf("profile %s: total_ops %d, tree-walker %d", s.req.prog, s.totalOps, want[s.req.prog])
				}
			case "tune":
				if prev, ok := tunes[s.req.prog]; ok && !bytes.Equal(prev, s.body) {
					return fmt.Errorf("tune %s: repeated request answered differently", s.req.prog)
				}
				tunes[s.req.prog] = s.body
				if cheapest == "" || s.ms < cheapestMs {
					cheapest, cheapestMs = s.req.prog, s.ms
				}
			}
		}
	}
	if cheapest != "" {
		c, err := profileReq{"tune", cheapest}.send(w.st)
		if err != nil {
			return err
		}
		if !bytes.Equal(c.body, tunes[cheapest]) {
			return fmt.Errorf("tune %s: repeated request answered differently", cheapest)
		}
	}
	return nil
}
