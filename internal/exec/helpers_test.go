package exec

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"suifx/internal/ir"
	"suifx/internal/minif"
)

// settleGoroutines waits for the goroutine count to fall back to the
// baseline taken before the runs under test; helpers left parked by a Run
// would keep it above.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: baseline %d, now %d\n%s", baseline, n, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// loopAt returns the DO loop with the given label in proc.
func loopAt(t *testing.T, prog *ir.Program, proc, label string) *ir.DoLoop {
	t.Helper()
	for _, l := range prog.ByName[proc].Loops() {
		if l.Label == label {
			return l
		}
	}
	t.Fatalf("no loop %s in %s", label, proc)
	return nil
}

// errSrc's planned loop runs a 200-trip inner loop per iteration and then
// divides by (i - %d): the iteration with that index fails, every other
// one stores its sum into a(i).
const errSrc = `
      PROGRAM main
      REAL a(400), w
      INTEGER i, k
      DO 10 i = 1, 400
        w = 0.0
        DO 8 k = 1, 200
          w = w + MOD(i * k, 7)
8       CONTINUE
        a(i) = w / (i - %d)
10    CONTINUE
      END
`

// newErrRun builds errSrc failing at iteration bad under a W=4 even plan.
func newErrRun(t *testing.T, bad int, mode ExecMode) (*Interp, *ir.Program) {
	t.Helper()
	prog := minif.MustParse("t", fmt.Sprintf(errSrc, bad))
	main := prog.Main()
	plan := &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{
		loopAt(t, prog, main.Name, "10"): {Private: []*ir.Symbol{main.Lookup("W"), main.Lookup("K")}},
	}}
	in := NewWithPlan(prog, plan)
	in.Mode = mode
	return in, prog
}

// panicWriter panics on every write: a stand-in for a fault raised inside
// a run, on a helper or on the dispatcher.
type panicWriter struct{}

func (panicWriter) Write([]byte) (int, error) { panic("write refused") }

const writeInLoopSrc = `
      PROGRAM main
      REAL a(100)
      INTEGER i
      DO 10 i = 1, 100
        a(i) = i
        WRITE(*,*) a(i)
10    CONTINUE
      END
`

const writeAfterLoopSrc = `
      PROGRAM main
      REAL a(100)
      INTEGER i
      DO 10 i = 1, 100
        a(i) = i
10    CONTINUE
      WRITE(*,*) a(1)
      END
`

// runRecovered runs in and returns the value of a panic escaping Run.
func runRecovered(in *Interp) (rec any) {
	defer func() { rec = recover() }()
	_ = in.Run()
	return nil
}

// TestParallelHelpersNoLeak pins the helper lifetime: a planned Run starts
// its helpers on the first dispatch and stops them when it returns — after
// success, after a position's error, after an exceeded op budget and after
// a panic the caller recovers — so the goroutine count settles back to its
// baseline.
func TestParallelHelpersNoLeak(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for _, mode := range []ExecMode{ModeTree, ModeBytecode, ModeRegister} {
		name := mode.String()
		check := func(what string, in *Interp) {
			t.Helper()
			if in.pool != nil {
				t.Errorf("%s %s: helpers still held after Run", name, what)
			}
		}

		in := runPlanned(t, mode, 4, true)
		check("success", in)

		in, _ = newErrRun(t, 300, mode) // fails on position 2, a helper
		if err := in.Run(); err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Errorf("%s worker error: got %v", name, err)
		}
		check("worker error", in)

		seq := New(minif.MustParse("t", redSrc))
		if err := seq.Run(); err != nil {
			t.Fatal(err)
		}
		prog := minif.MustParse("t", redSrc)
		in = NewWithPlan(prog, planFor(t, prog, 4, true))
		in.Mode = mode
		in.MaxOps = seq.Ops() / 2
		if err := in.Run(); err == nil || !strings.Contains(err.Error(), "budget") {
			t.Errorf("%s MaxOps: got %v", name, err)
		}
		check("MaxOps", in)

		for _, src := range []string{writeInLoopSrc, writeAfterLoopSrc} {
			prog := minif.MustParse("t", src)
			main := prog.Main()
			in := NewWithPlan(prog, &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{
				loopAt(t, prog, main.Name, "10"): {},
			}})
			in.Mode = mode
			in.Out = panicWriter{}
			if rec := runRecovered(in); rec == nil || !strings.Contains(fmt.Sprint(rec), "write refused") {
				t.Errorf("%s: recovered %v, want the writer's panic", name, rec)
			}
			check("panic", in)
		}
	}
	settleGoroutines(t, baseline)
}

// TestParallelErrorJoinsHelpers: when one position fails, the planned loop
// returns only after every other position has run its whole share. The
// failing position here is 0, the dispatcher's own, which fails on its
// first iteration while the helpers still have 100 iterations each; every
// helper iteration's store must be in the arena when Run returns (and the
// race detector sees no write after it).
func TestParallelErrorJoinsHelpers(t *testing.T) {
	for _, mode := range []ExecMode{ModeTree, ModeBytecode, ModeRegister} {
		in, prog := newErrRun(t, 1, mode)
		err := in.Run()
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%v: got %v, want a division by zero", mode, err)
		}
		lo, _, _ := in.SymRange(prog.Main().Name, "A")
		arena := in.Arena()
		for i := 2; i <= 400; i++ {
			want := 0.0
			if i > 100 { // positions 1..3 under the even schedule
				for k := 1; k <= 200; k++ {
					want += math.Mod(float64(i*k), 7)
				}
				want /= float64(i - 1)
			}
			if got := arena[lo+int64(i-1)]; got != want {
				t.Fatalf("%v: a(%d) = %g, want %g", mode, i, got, want)
			}
		}
	}
}

// reuseSrc dispatches two planned loops %d times each: kern's loop 30
// (interleaved; a formal array reached through the dispatching frame's
// parameters, a nested sequential loop the register tier arms) and main's
// loop 10 (guided; + reductions on a scalar and on an array merged
// staggered, a private inner index).
const reuseSrc = `
      SUBROUTINE kern(x, n, t)
      REAL x(200), w
      INTEGER n, t, i, k
      DO 30 i = 1, n
        w = 0.0
        DO 25 k = 1, 20
          w = w + MOD(i * k + t, 5)
25      CONTINUE
        x(i) = w
30    CONTINUE
      END
      PROGRAM main
      REAL a(200), b(10), s
      INTEGER i, j, t
      DO 2 j = 1, 10
        b(j) = 0.0
2     CONTINUE
      s = 0.0
      DO 20 t = 1, %d
        CALL kern(a, 200, t)
        DO 10 i = 1, 200
          s = s + a(i)
          DO 8 j = 1, 10
            b(j) = b(j) + a(i) * j
8         CONTINUE
10      CONTINUE
20    CONTINUE
      END
`

func newReuseRun(t *testing.T, prog *ir.Program, mode ExecMode) *Interp {
	t.Helper()
	main, kern := prog.Main(), prog.ByName["KERN"]
	in := NewWithPlan(prog, &ParallelPlan{Workers: 4, Loops: map[*ir.DoLoop]*LoopPlan{
		loopAt(t, prog, kern.Name, "30"): {
			Private:  []*ir.Symbol{kern.Lookup("W"), kern.Lookup("K")},
			Schedule: ScheduleInterleaved,
		},
		loopAt(t, prog, main.Name, "10"): {
			Private:    []*ir.Symbol{main.Lookup("J")},
			Reductions: []ReductionPlan{{Sym: main.Lookup("S"), Op: "+"}, {Sym: main.Lookup("B"), Op: "+"}},
			Schedule:   ScheduleGuided,
			Staggered:  true,
			Chunks:     4,
		},
	}})
	in.Mode = mode
	return in
}

// reuseResult is what one Run leaves behind, with counters as deltas.
type reuseResult struct {
	arena []uint64
	stats []ParLoopStat
	crit  int64
	ops   int64
	delta Counters
}

func runMeasured(t *testing.T, in *Interp) reuseResult {
	t.Helper()
	before := ReadCounters()
	if err := in.Run(); err != nil {
		t.Fatal(err)
	}
	after := ReadCounters()
	r := reuseResult{stats: in.ParallelStats(), crit: in.CriticalPathOps(), ops: in.Ops()}
	for _, v := range in.Arena() {
		r.arena = append(r.arena, math.Float64bits(v))
	}
	r.delta = Counters{
		CompiledViews:    after.CompiledViews - before.CompiledViews,
		Instructions:     after.Instructions - before.Instructions,
		BytecodeRuns:     after.BytecodeRuns - before.BytecodeRuns,
		TreeRuns:         after.TreeRuns - before.TreeRuns,
		ParallelLoopRuns: after.ParallelLoopRuns - before.ParallelLoopRuns,
		ParallelWorkers:  after.ParallelWorkers - before.ParallelWorkers,
		TieredRuns:       after.TieredRuns - before.TieredRuns,
		SpecInvocations:  after.SpecInvocations - before.SpecInvocations,
		StripIterations:  after.StripIterations - before.StripIterations,
		RegisterRuns:     after.RegisterRuns - before.RegisterRuns,
		RegIterations:    after.RegIterations - before.RegIterations,
	}
	return r
}

// TestParallelWorkerReuse: worker VMs (and the run's helpers) are reused
// across planned-loop invocations and across Runs of one Interp, and must
// carry nothing over — no ops, no specialization arming, no parameter or
// loop-stack residue. On every engine tier, a second Run of one Interp
// must match two fresh interpreters bit for bit (arena, virtual clock,
// engine counter deltas), and the per-invocation figures of a run with six
// dispatches per loop must be exactly six times those of a run with one.
func TestParallelWorkerReuse(t *testing.T) {
	for _, mode := range []ExecMode{ModeTree, ModeBytecode, ModeTiered, ModeRegister} {
		prog := minif.MustParse("t", fmt.Sprintf(reuseSrc, 6))
		reused := newReuseRun(t, prog, mode)
		first := runMeasured(t, reused)
		second := runMeasured(t, reused)
		fresh := []reuseResult{
			runMeasured(t, newReuseRun(t, prog, mode)),
			runMeasured(t, newReuseRun(t, prog, mode)),
		}
		for i, f := range fresh {
			if fmt.Sprint(f.arena) != fmt.Sprint(first.arena) {
				t.Errorf("%v: fresh run %d arena differs from the first run's", mode, i)
			}
			if fmt.Sprint(f.stats) != fmt.Sprint(first.stats) || f.crit != first.crit || f.ops != first.ops {
				t.Errorf("%v: fresh run %d stats %+v crit %d ops %d, first run %+v crit %d ops %d",
					mode, i, f.stats, f.crit, f.ops, first.stats, first.crit, first.ops)
			}
			if f.delta != first.delta {
				t.Errorf("%v: fresh run %d counters %+v, first run %+v", mode, i, f.delta, first.delta)
			}
		}
		// The program rewrites all of its state, so the second Run of the
		// same interpreter leaves the same arena; its clock and statistics
		// accumulate onto the first Run's.
		if fmt.Sprint(second.arena) != fmt.Sprint(first.arena) {
			t.Errorf("%v: second Run's arena differs from the first's", mode)
		}
		if second.ops != 2*first.ops || second.crit != 2*first.crit {
			t.Errorf("%v: second Run ops %d crit %d, want %d and %d", mode, second.ops, second.crit, 2*first.ops, 2*first.crit)
		}
		for i, st := range second.stats {
			f := first.stats[i]
			if st.Invocations != 2*f.Invocations || st.WorkerOps != 2*f.WorkerOps || st.CritOps != 2*f.CritOps {
				t.Errorf("%v: second Run stat %+v, want twice %+v", mode, st, f)
			}
		}
		// Worker views compile once per interpreter.
		want := first.delta
		want.CompiledViews = 0
		if second.delta != want {
			t.Errorf("%v: second Run counters %+v, want %+v", mode, second.delta, want)
		}

		// Six dispatches per loop cost exactly six single dispatches.
		one := runMeasured(t, newReuseRun(t, minif.MustParse("t", fmt.Sprintf(reuseSrc, 1)), mode))
		for i, st := range first.stats {
			o := one.stats[i]
			if st.Invocations != 6*o.Invocations || st.WorkerOps != 6*o.WorkerOps || st.CritOps != 6*o.CritOps {
				t.Errorf("%v: six-dispatch stat %+v, want six times %+v", mode, st, o)
			}
		}
		if first.delta.SpecInvocations != 6*one.delta.SpecInvocations ||
			first.delta.RegIterations != 6*one.delta.RegIterations ||
			first.delta.ParallelWorkers != 6*one.delta.ParallelWorkers {
			t.Errorf("%v: six-dispatch counters %+v, want six times %+v", mode, first.delta, one.delta)
		}
		if mode == ModeRegister && one.delta.SpecInvocations == 0 {
			t.Errorf("register: no nested loop armed inside the worker views")
		}
	}
}
