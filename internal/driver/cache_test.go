package driver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"suifx/internal/minif"
	"suifx/internal/summary"
	"suifx/internal/workloads"
)

// TestCacheLRUEviction checks the bounding policy: a capacity-2 cache keeps
// the two most recently *used* entries (a hit refreshes recency) and counts
// every eviction.
func TestCacheLRUEviction(t *testing.T) {
	ws := workloads.All()
	if len(ws) < 3 {
		t.Skip("needs at least 3 workloads")
	}
	c := NewCacheCap(2)
	a, b, d := ws[0], ws[1], ws[2]

	c.MustAnalyze(a.Name, a.Source, Options{})
	c.MustAnalyze(b.Name, b.Source, Options{})
	// Touch a so b is now least recently used.
	c.MustAnalyze(a.Name, a.Source, Options{})
	// Inserting d must evict b, not a.
	c.MustAnalyze(d.Name, d.Source, Options{})

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after 3 inserts into cap-2 cache = %+v, want 1 eviction and 2 entries", st)
	}
	c.MustAnalyze(a.Name, a.Source, Options{}) // still cached
	c.MustAnalyze(b.Name, b.Source, Options{}) // evicted: must re-analyze (a miss)
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 4 || st.Evictions != 2 {
		t.Fatalf("stats = %+v, want 2 hits / 4 misses / 2 evictions", st)
	}
}

// TestCacheCapacityOneByteIdentical is the testing/quick property from the
// issue: even a capacity-1 cache — which thrashes on every alternation —
// returns byte-identical analyses to uncached Analyze, for any request
// sequence over the workload set.
func TestCacheCapacityOneByteIdentical(t *testing.T) {
	ws := workloads.All()
	uncached := make(map[string]string, len(ws))
	for _, w := range ws {
		uncached[w.Name] = dump(summary.Analyze(w.Fresh()))
	}
	c := NewCacheCap(1)
	property := func(picks []uint8) bool {
		if len(picks) > 8 {
			picks = picks[:8] // analyses are cheap but not free
		}
		for _, p := range picks {
			w := ws[int(p)%len(ws)]
			res, err := c.Analyze(w.Name, w.Source, Options{})
			if err != nil {
				t.Errorf("%s: %v", w.Name, err)
				return false
			}
			if got := dump(res.Sum); got != uncached[w.Name] {
				t.Errorf("%s: cached analysis differs from uncached", w.Name)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Entries > 1 {
		t.Fatalf("capacity-1 cache holds %d entries", st.Entries)
	}
}

// TestCacheResetInFlightRace is the regression test for the Reset-vs-
// singleflight race: a Reset while an Analyze is in flight must not let the
// old run publish into (or remove from) the new generation. Run under
// -race. The gate hook pauses the in-flight analysis so the Reset and the
// new-generation request deterministically overlap it.
func TestCacheResetInFlightRace(t *testing.T) {
	w := workloads.All()[0]
	c := NewCacheCap(4)

	started := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{onProc: func(wave int, proc string) {
		gateOnce.Do(func() {
			close(started)
			<-release
		})
	}}

	firstDone := make(chan *Result, 1)
	go func() {
		res, _ := c.AnalyzeCtx(context.Background(), w.Name, w.Source, opt)
		firstDone <- res
	}()
	<-started

	c.Reset()

	// New generation: same key, computed independently of the gated run.
	second, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	close(release)
	first := <-firstDone
	if first == nil || second == nil {
		t.Fatal("both generations must produce results")
	}
	if first == second {
		t.Fatal("post-Reset request shared the pre-Reset in-flight result")
	}

	// The old run's completion handler must not have evicted or replaced
	// the new generation's entry: a third request is a pure hit on second.
	third, err := c.Analyze(w.Name, w.Source, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if third != second {
		t.Fatal("old-generation completion disturbed the new generation's entry")
	}
}

// TestCacheCancelledRunSharedAndRetried pins the shared-work cancellation
// contract. The run belongs to no single caller: when the caller that
// started it cancels, the waiters with live contexts still get the result.
// Only when every interested caller has left is the run cancelled, and its
// key is then retried from scratch.
func TestCacheCancelledRunSharedAndRetried(t *testing.T) {
	w := workloads.All()[0]

	t.Run("leader cancels", func(t *testing.T) {
		c := NewCache()
		started := make(chan struct{})
		var gateOnce sync.Once
		ctx, cancel := context.WithCancel(context.Background())
		// Hold the run until the leader has cancelled: the run must then
		// carry on for the waiters rather than observe the cancellation.
		opt := Options{Workers: 1, onProc: func(wave int, proc string) {
			gateOnce.Do(func() { close(started) })
			<-ctx.Done()
		}}

		leader := make(chan error, 1)
		go func() {
			_, err := c.AnalyzeCtx(ctx, w.Name, w.Source, opt)
			leader <- err
		}()
		<-started
		const waiters = 4
		type outcome struct {
			res *Result
			err error
		}
		outs := make(chan outcome, waiters)
		for i := 0; i < waiters; i++ {
			go func() {
				res, err := c.AnalyzeCtx(context.Background(), w.Name, w.Source, Options{})
				outs <- outcome{res, err}
			}()
		}
		// Every waiter registers on the in-flight entry as a cache hit.
		for c.Stats().Hits < waiters {
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-leader; !errors.Is(err, context.Canceled) {
			t.Fatalf("leader: err = %v, want context.Canceled", err)
		}
		var first *Result
		for i := 0; i < waiters; i++ {
			o := <-outs
			if o.err != nil || o.res == nil {
				t.Fatalf("waiter %d: err = %v; a live waiter must get the shared result", i, o.err)
			}
			if first == nil {
				first = o.res
			} else if o.res != first {
				t.Fatalf("waiter %d got a different result: the run was not shared", i)
			}
		}
		// The finished run stays cached: the next request is a pure hit.
		res, err := c.Analyze(w.Name, w.Source, Options{})
		if err != nil || res != first {
			t.Fatalf("request after the shared run: res changed or err = %v", err)
		}
		if st := c.Stats(); st.Misses != 1 || st.Entries != 1 {
			t.Fatalf("stats = %+v, want the one run cached", st)
		}
	})

	t.Run("all callers cancel", func(t *testing.T) {
		c := NewCache()
		started := make(chan struct{})
		release := make(chan struct{})
		var gateOnce sync.Once
		opt := Options{Workers: 1, onProc: func(wave int, proc string) {
			gateOnce.Do(func() { close(started) })
			<-release
		}}
		defer close(release)

		const callers = 3
		ctxs := make([]context.CancelFunc, callers)
		errs := make(chan error, callers)
		for i := 0; i < callers; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			ctxs[i] = cancel
			o := Options{}
			if i == 0 {
				o = opt
			}
			go func() {
				_, err := c.AnalyzeCtx(ctx, w.Name, w.Source, o)
				errs <- err
			}()
			if i == 0 {
				<-started
			}
		}
		for c.Stats().Hits < callers-1 {
			time.Sleep(time.Millisecond)
		}
		// All but the last caller leave: the run must survive.
		for i := 0; i < callers-1; i++ {
			ctxs[i]()
			if err := <-errs; !errors.Is(err, context.Canceled) {
				t.Fatalf("caller %d: err = %v, want context.Canceled", i, err)
			}
		}
		if st := c.Stats(); st.Entries != 1 {
			t.Fatalf("entries = %d with one caller still waiting, want the run kept", st.Entries)
		}
		// The last caller leaves: the run is cancelled and unlinked at once.
		ctxs[callers-1]()
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("last caller: err = %v, want context.Canceled", err)
		}
		if st := c.Stats(); st.Entries != 0 {
			t.Fatalf("entries = %d after every caller left, want the abandoned run dropped", st.Entries)
		}
		// A fresh request recomputes (a miss) rather than joining the
		// abandoned run, and succeeds.
		res, err := c.Analyze(w.Name, w.Source, Options{})
		if err != nil || res == nil {
			t.Fatalf("retry after cancellation: %v", err)
		}
		if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
			t.Fatalf("stats after retry = %+v, want 2 misses and 1 entry", st)
		}
	})
}

// TestCachePanicReachesEveryWaiter: a panic inside the shared run is
// re-raised in each waiting caller (so the server's recovery middleware sees
// it), and the crashed entry is dropped rather than left in flight forever.
func TestCachePanicReachesEveryWaiter(t *testing.T) {
	w := workloads.All()[0]
	c := NewCache()
	started := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{Workers: 1, onProc: func(wave int, proc string) {
		gateOnce.Do(func() { close(started) })
		<-release
		panic("boom")
	}}
	call := func(o Options) (rec any) {
		defer func() { rec = recover() }()
		c.AnalyzeCtx(context.Background(), w.Name, w.Source, o)
		return nil
	}
	recs := make(chan any, 2)
	go func() { recs <- call(opt) }()
	<-started
	go func() { recs <- call(Options{}) }()
	for c.Stats().Hits < 1 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if r := <-recs; r == nil {
			t.Fatalf("caller %d returned normally; want the analysis panic re-raised", i)
		}
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d after a panicked run, want it dropped", st.Entries)
	}
	if res, err := c.Analyze(w.Name, w.Source, Options{}); err != nil || res == nil {
		t.Fatalf("retry after panic: %v", err)
	}
}

// TestCacheWaiterOwnContext: a waiter whose own context ends gets its own
// error while the computing run continues and succeeds for everyone else.
func TestCacheWaiterOwnContext(t *testing.T) {
	w := workloads.All()[0]
	c := NewCache()

	started := make(chan struct{})
	release := make(chan struct{})
	var gateOnce sync.Once
	opt := Options{onProc: func(wave int, proc string) {
		gateOnce.Do(func() { close(started) })
		<-release
	}}

	ownerDone := make(chan error, 1)
	go func() {
		_, err := c.AnalyzeCtx(context.Background(), w.Name, w.Source, opt)
		ownerDone <- err
	}()
	<-started

	wctx, wcancel := context.WithCancel(context.Background())
	wcancel()
	if _, err := c.AnalyzeCtx(wctx, w.Name, w.Source, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient waiter err = %v, want context.Canceled", err)
	}

	close(release)
	if err := <-ownerDone; err != nil {
		t.Fatalf("owner run failed after a waiter left: %v", err)
	}
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("entries = %d, want the completed run cached", st.Entries)
	}
}

// synthSource builds a deep chain of procedures (P1 calls P2 calls ... PN),
// each with a loop nest over a shared array — a long SCC chain whose waves
// a cancellation test can interrupt mid-schedule.
func synthSource(procs int) string {
	var b []byte
	add := func(s string, args ...any) { b = append(b, fmt.Sprintf(s+"\n", args...)...) }
	add("      PROGRAM synth")
	add("      REAL a(100)")
	add("      CALL p1(a)")
	add("      END")
	for i := 1; i <= procs; i++ {
		add("      SUBROUTINE p%d(a)", i)
		add("      REAL a(100)")
		add("      INTEGER i")
		add("      DO 10 i = 1, 99")
		add("        a(i) = a(i) + a(i+1)")
		add("10    CONTINUE")
		if i < procs {
			add("      CALL p%d(a)", i+1)
		}
		add("      END")
	}
	return string(b)
}

// TestAnalyzeCtxCancelStopsWaves: cancelling mid-schedule abandons the
// remaining SCC waves — the analysis returns the context error and analyzes
// strictly fewer procedures than the program has.
func TestAnalyzeCtxCancelStopsWaves(t *testing.T) {
	const procs = 60
	prog, err := minif.Parse("synth", synthSource(procs))
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	var analyzed int
	var mu sync.Mutex
	opt := Options{Workers: 1, onProc: func(wave int, proc string) {
		mu.Lock()
		analyzed++
		if analyzed == 5 {
			cancel()
		}
		mu.Unlock()
	}}
	a, err := AnalyzeCtx(ctx, prog, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if a != nil {
		t.Fatal("cancelled analysis must return a nil result")
	}
	mu.Lock()
	n := analyzed
	mu.Unlock()
	// Two waves over procs+1 procedures would analyze 2*(procs+1) times.
	if n >= procs {
		t.Fatalf("analyzed %d procedures after cancellation at 5; waves were not abandoned", n)
	}
}
