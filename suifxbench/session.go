package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"suifx/internal/corpus"
	"suifx/internal/driver"
	"suifx/internal/exec"
	"suifx/internal/explorer"
	"suifx/internal/ir"
	"suifx/internal/liveness"
	"suifx/internal/minif"
	"suifx/internal/parallel"
	"suifx/internal/server"
	"suifx/internal/session"
	"suifx/internal/summary"
)

// guruSession opens a session per corpus program and walks a script built
// from the session's initial Guru list: in rank order, assert private on
// each blocking variable, then, on targets the profiler saw carry a dynamic
// dependence, assert independent on the first blocking variable. The script
// keeps the first privateSteps and independentSteps of these, the Guru's top
// targets, in the share the whole script has. Assert cost varies from
// program to program and a rejected assert is nearly free, so a run must
// span many sessions with the same mix for its figures not to hinge on the
// seed's programs.
type guruSession struct {
	seed  int64
	st    *stack
	progs []*corpus.Program
	runs  []*sessionRun
}

type assertStep struct {
	kind, loop, v string
}

// sessionRun keeps what the checks read of one session's replies.
type sessionRun struct {
	prog     *corpus.Program
	createMs float64
	id       string
	script   []assertStep
	full     scriptMix // the whole script, before the cut
	ms       []float64 // per sent step
	outcomes []assertResult

	// The final state, read before the session is deleted.
	loops, parallel int
	targets         []session.Target
}

type assertResult struct {
	accepted     bool
	code, reason string
}

// finish reads a session's final state for the check and deletes it, as a
// user closing the session would; the server then holds one live session
// at a time. These requests are not timed.
func (w *guruSession) finish(r *sessionRun) error {
	if r == nil {
		return nil
	}
	base := "/v1/session/" + r.id
	var info session.Info
	var guru session.GuruReport
	for _, get := range []struct {
		path string
		out  any
	}{{base, &info}, {base + "/guru", &guru}} {
		c, err := w.st.do(http.MethodGet, w.st.url, get.path, nil)
		if err = statusErr(c, err); err == nil {
			err = json.Unmarshal(c.body, get.out)
		}
		if err != nil {
			return fmt.Errorf("read %s: %w", get.path, err)
		}
	}
	r.loops, r.parallel, r.targets = info.Loops, info.Parallel, guru.Targets
	c, err := w.st.do(http.MethodDelete, w.st.url, base, nil)
	if err = statusErr(c, err); err != nil {
		return fmt.Errorf("delete %s: %w", base, err)
	}
	return nil
}

func setupGuruSession(seed int64, sz sizes) (workload, error) {
	progs := genPrograms(seed, "guru-session", sz.sessionMax, sz.sessionLines)
	st, err := startStack(0)
	if err != nil {
		return nil, err
	}
	if err := warmUp(st, seed, 2, sz.sessionLines); err != nil {
		st.close()
		return nil, err
	}
	return &guruSession{seed: seed, st: st, progs: progs}, nil
}

func (w *guruSession) close() { w.st.close() }

// The whole script on this program shape is 28% independent steps: 708
// private and 275 independent over 30 programs of 1,500 lines (seeds 1 to 6,
// five programs each). 5:2 keeps that share (29%).
const (
	privateSteps     = 5
	independentSteps = 2
)

// scriptMix counts a script's steps by kind.
type scriptMix struct{ private, independent int }

// buildScript returns the cut script and the mix of the whole one.
func buildScript(g *session.GuruReport) ([]assertStep, scriptMix) {
	var priv, indep []assertStep
	for _, t := range g.Targets {
		for _, v := range t.Blocking {
			priv = append(priv, assertStep{session.KindPrivate, t.Loop, v})
		}
		if t.DynDeps > 0 && len(t.Blocking) > 0 {
			indep = append(indep, assertStep{session.KindIndependent, t.Loop, t.Blocking[0]})
		}
	}
	full := scriptMix{len(priv), len(indep)}
	if len(priv) > privateSteps {
		priv = priv[:privateSteps]
	}
	if len(indep) > independentSteps {
		indep = indep[:independentSteps]
	}
	return append(priv, indep...), full
}

func (w *guruSession) drive(deadline time.Time, rec *recorder, m metricSet) error {
	return w.st.countServer(m, func() error {
		var run *sessionRun
		next := 0
		for time.Now().Before(deadline) {
			if run == nil || len(run.ms) == len(run.script) {
				if err := w.finish(run); err != nil {
					return err
				}
				if next == len(w.progs) {
					run = nil
					break
				}
				p := w.progs[next]
				next++
				c, err := w.st.post("/v1/session", server.SessionCreateRequest{
					SourceRef: server.SourceRef{Name: p.Name, Source: p.Source},
				})
				if !rec.note("session create "+p.Name, c, err) {
					run = nil
					continue
				}
				var create server.SessionCreateResponse
				if err := json.Unmarshal(c.body, &create); err != nil {
					return fmt.Errorf("session create %s: decode: %w", p.Name, err)
				}
				run = &sessionRun{prog: p, createMs: ms(c.dur), id: create.ID}
				run.script, run.full = buildScript(create.Guru)
				w.runs = append(w.runs, run)
				continue
			}
			step := run.script[len(run.ms)]
			c, err := w.st.post("/v1/session/"+run.id+"/assert",
				server.SessionAssertRequest{Kind: step.kind, Loop: step.loop, Var: step.v})
			if !rec.note("assert "+step.loop, c, err) {
				run.script = run.script[:len(run.ms)] // end this session
				continue
			}
			var out session.AssertOutcome
			if err := json.Unmarshal(c.body, &out); err != nil {
				return fmt.Errorf("assert %s: decode: %w", step.loop, err)
			}
			run.ms = append(run.ms, ms(c.dur))
			run.outcomes = append(run.outcomes, assertResult{out.Accepted, out.Code, out.Reason})
		}
		if err := w.finish(run); err != nil {
			return err
		}
		var create, asserts []float64
		accepted, rejected := 0, 0
		var full scriptMix
		for _, r := range w.runs {
			create = append(create, r.createMs)
			asserts = append(asserts, r.ms...)
			full.private += r.full.private
			full.independent += r.full.independent
			for _, o := range r.outcomes {
				if o.accepted {
					accepted++
				} else {
					rejected++
				}
			}
		}
		m["server.session_create_ms"] = median(create)
		m["server.assert_p50_ms"] = quantile(asserts, 0.50)
		m["server.assert_p75_ms"] = quantile(asserts, 0.75)
		m["session.asserts_accepted"] = float64(accepted)
		m["session.asserts_rejected"] = float64(rejected)
		if n := full.private + full.independent; n > 0 {
			m["session.full_script_indep_share"] = float64(full.independent) / float64(n)
		}
		return nil
	})
}

// reanalyze is explorer.Session.Reanalyze with a span around each layer
// call; it returns the incremental stats and the spans' durations.
func reanalyze(tr *tracer, root *span, ex *explorer.Session) (st driver.IncStats, inc, live, repar float64, reanalyzed int) {
	inc = tr.call(root, "driver.Incremental.Analyze", func() { ex.Sum, st = ex.Inc.Analyze() }).ms()
	ex.LastInc = st
	cfg := parallel.Config{UseReductions: ex.Opts.UseReductions, Assertions: ex.Assertions}
	live = tr.call(root, "liveness.Analyze", func() { ex.Live = liveness.Analyze(ex.Sum, liveness.Full) }).ms()
	cfg.DeadAtExit = ex.Live.Oracle()
	dirty := st.RecomputedSet()
	repar = tr.call(root, "parallel.ReparallelizeWith", func() {
		ex.Par = parallel.ReparallelizeWith(ex.Par, ex.Sum, cfg, func(p string) bool { return dirty[p] })
	}).ms()
	for _, li := range ex.Par.Ordered {
		if dirty[li.Region.Proc.Name] {
			reanalyzed++
		}
	}
	return
}

// replay runs each session's creation and sent script again on an explorer
// session driven layer by layer. The replayed session must end with the
// loop counts the server's did.
func (w *guruSession) replay(more func(int) bool, tr *tracer, m metricSet) (int, error) {
	var analyze, profile, inc, live, repar, recomputed, reused, reanalyzed, overhead []float64
	for i, r := range w.runs {
		if i > 0 && !more(i) {
			break
		}
		root := tr.root("session.create")
		var prog *ir.Program
		var err error
		tr.call(root, "minif.Parse", func() { prog, err = minif.Parse(r.prog.Name, r.prog.Source) })
		if err != nil {
			return 0, fmt.Errorf("traced parse %s: %w", r.prog.Name, err)
		}
		ex := explorer.NewUnstarted(driver.NewIncremental(prog, driver.Options{}), explorer.DefaultOptions())
		ex.Opts.MaxOps = session.DefaultMaxOps
		_, full, _, _, _ := reanalyze(tr, root, ex)
		analyze = append(analyze, full)
		profile = append(profile, tr.call(root, "explorer.Profile", func() { err = ex.Profile() }).ms())
		tr.close(root)
		if err != nil {
			return 0, fmt.Errorf("traced profile %s: %w", r.prog.Name, err)
		}
		if i == 0 {
			st := ex.Par.Stats()
			m["parallel.loops"] = float64(st.TotalLoops)
			m["parallel.chosen_loops"] = float64(st.ChosenN)
		}
		for k, step := range r.script[:len(r.ms)] {
			root := tr.root("session.assert")
			accepted := true
			switch step.kind {
			case session.KindPrivate:
				li := ex.Par.LoopByID(step.loop)
				if li == nil || li.Region.Proc.Lookup(step.v) == nil {
					accepted = false
					break
				}
				as := ex.Assertions[step.loop]
				if as.Private == nil {
					as.Private, as.Independent = map[string]bool{}, map[string]bool{}
				}
				as.Private[step.v] = true
				ex.Assertions[step.loop] = as
				ex.Inc.Invalidate(li.Region.Proc.Name)
				st, a, b, c, n := reanalyze(tr, root, ex)
				inc, live, repar = append(inc, a), append(live, b), append(repar, c)
				recomputed = append(recomputed, float64(st.Recomputed))
				reused = append(reused, float64(st.Reused))
				reanalyzed = append(reanalyzed, float64(n))
				overhead = append(overhead, r.ms[k]-(a+b+c))
			case session.KindIndependent:
				tr.call(root, "explorer.Session.AssertIndependent", func() {
					accepted = ex.AssertIndependent(step.loop, step.v) == nil
				})
			}
			tr.close(root)
			if accepted != r.outcomes[k].accepted {
				return 0, fmt.Errorf("%s: traced %s %s in %s accepted=%v, server said %v",
					r.prog.Name, step.kind, step.v, step.loop, accepted, r.outcomes[k].accepted)
			}
		}
		if st := ex.Par.Stats(); st.TotalLoops != r.loops || st.ChosenN != r.parallel {
			return 0, fmt.Errorf("%s: traced session ends with %d loops, %d parallel; the server's with %d, %d",
				r.prog.Name, st.TotalLoops, st.ChosenN, r.loops, r.parallel)
		}
	}
	m["driver.analyze_ms"] = median(analyze)
	m["explorer.profile_ms"] = median(profile)
	m["driver.incremental_ms"] = median(inc)
	m["driver.recomputed_procs"] = median(recomputed)
	m["driver.reused_procs"] = median(reused)
	m["liveness.full_ms"] = median(live)
	m["parallel.reparallelize_ms"] = median(repar)
	m["parallel.loops_reanalyzed"] = median(reanalyzed)
	m["server.assert_overhead_ms"] = median(overhead)
	return len(analyze), nil
}

// check recomputes a sample of the sessions' final verdicts from scratch
// with their accepted assertions, and replays the dynamic-dependence
// checker's evidence on a tree-walker run of its own.
func (w *guruSession) check() error {
	if len(w.runs) == 0 {
		return fmt.Errorf("guru-session: no session was created")
	}
	idx := sample(w.seed, len(w.runs))
	return forEachParallel(len(idx), func(i int) error {
		r := w.runs[idx[i]]
		if err := w.checkRun(r); err != nil {
			return fmt.Errorf("%s: %w", r.prog.Name, err)
		}
		return nil
	})
}

func (w *guruSession) checkRun(r *sessionRun) error {
	prog, err := minif.Parse(r.prog.Name, r.prog.Source)
	if err != nil {
		return err
	}
	sum := summary.Analyze(prog)
	asserts := map[string]parallel.AssertSet{}
	for k, o := range r.outcomes {
		if !o.accepted {
			continue
		}
		step := r.script[k]
		as := asserts[step.loop]
		if as.Private == nil {
			as.Private, as.Independent = map[string]bool{}, map[string]bool{}
		}
		if step.kind == session.KindPrivate {
			as.Private[step.v] = true
		} else {
			as.Independent[step.v] = true
		}
		asserts[step.loop] = as
	}
	pr := parallel.ParallelizeWith(sum, parallel.Config{
		UseReductions: true,
		DeadAtExit:    liveness.Analyze(sum, liveness.Full).Oracle(),
		Assertions:    asserts,
	})

	st := pr.Stats()
	if r.loops != st.TotalLoops || r.parallel != st.ChosenN {
		return fmt.Errorf("session has %d loops, %d parallel; from scratch %d, %d",
			r.loops, r.parallel, st.TotalLoops, st.ChosenN)
	}
	for _, t := range r.targets {
		li := pr.LoopByID(t.Loop)
		if li == nil || li.Chosen || li.Dep.Parallelizable {
			return fmt.Errorf("guru target %s is not sequential from scratch", t.Loop)
		}
		var blocking []string
		for _, b := range li.Dep.Blocking {
			blocking = append(blocking, b.Sym.Name)
		}
		if strings.Join(blocking, ",") != strings.Join(t.Blocking, ",") {
			return fmt.Errorf("guru target %s blocks on %v, from scratch on %v", t.Loop, t.Blocking, blocking)
		}
	}

	// An independent assertion must be contradicted exactly when a
	// sequential run observes a carried flow dependence on that variable.
	in := exec.New(prog)
	in.Mode = exec.ModeTree
	in.MaxOps = session.DefaultMaxOps
	dyn := exec.NewDynDep(in)
	if err := in.Run(); err != nil {
		return fmt.Errorf("dependence run: %w", err)
	}
	for k, o := range r.outcomes {
		step := r.script[k]
		contradicted := o.code == explorer.RejectContradicted
		if step.kind == session.KindPrivate {
			if !o.accepted {
				return fmt.Errorf("private %s in %s rejected: %s", step.v, step.loop, o.reason)
			}
			continue
		}
		li := pr.LoopByID(step.loop)
		if li == nil {
			return fmt.Errorf("independent assert names unknown loop %s", step.loop)
		}
		want := false
		if lo, hi, ok := in.SymRange(li.Region.Proc.Name, step.v); ok {
			want = dyn.CarriedInRange(li.Region.Loop, lo, hi) > 0
		}
		if contradicted != want || (!want && !o.accepted) {
			return fmt.Errorf("independent %s in %s: outcome %q (accepted=%v), tree-walker saw carried dependence=%v",
				step.v, step.loop, o.code, o.accepted, want)
		}
	}
	return nil
}
