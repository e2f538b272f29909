// Command suifxbench is the suifxd end-to-end benchmark. It starts suifxd
// in this process (internal/server behind a loopback listener; for
// batch-cluster an internal/cluster coordinator over two workers), drives one
// seeded closed-loop workload from a single client, checks every output
// against an independent oracle, and prints one JSON result line.
//
//	suifxbench --workload analyze-cold --seed 1 --seconds 15 --trace 0
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 spends
// half the time on the same untraced traffic and half replaying its inputs
// straight into each layer's public functions: once under spans recorded
// here, which give the per-layer metrics, and once more, the same units,
// with tracing off, which gives the tracing overhead. See README.md for the
// metric map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"suifx/internal/exec"
)

// workload is one traffic mix against a started suifxd.
type workload interface {
	// drive runs the closed loop until deadline, noting every operation in
	// rec; m receives the per-endpoint figures the traced run reports.
	drive(deadline time.Time, rec *recorder, m metricSet) error
	// replay sends what drive sent straight into the layers, unit by unit
	// while more(units done) holds, and at least one unit. It records spans
	// in tr, sets the per-layer figures in m and returns the units replayed.
	replay(more func(done int) bool, tr *tracer, m metricSet) (int, error)
	// check verifies what drive received against the oracles.
	check() error
	close()
}

type workloadDef struct {
	name  string
	setup func(seed int64, sz sizes) (workload, error)
	// digest fingerprints the seed's generated inputs.
	digest func(seed int64, sz sizes) string
}

var workloadDefs = []workloadDef{
	{"analyze-cold", setupAnalyzeCold, func(seed int64, sz sizes) string {
		return manifestDigest(genPrograms(seed, "analyze-cold", sz.analyzeMax, sz.analyzeLines))
	}},
	{"guru-session", setupGuruSession, func(seed int64, sz sizes) string {
		return manifestDigest(genPrograms(seed, "guru-session", sz.sessionMax, sz.sessionLines))
	}},
	{"profile-tune", setupProfileTune, func(seed int64, sz sizes) string {
		return fmt.Sprint(roundOrder(seed, sz, 0))
	}},
	{"batch-cluster", setupBatchCluster, func(seed int64, sz sizes) string {
		return manifestDigest(genBatches(seed, 1, sz.batchItems, sz.batchLines)[0].programs())
	}},
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// recorder counts the timed operations.
type recorder struct {
	lat               []float64 // ms, successful operations only
	attempted, failed int
}

// op records one timed operation and reports whether it succeeded.
func (r *recorder) op(what string, d time.Duration, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "suifxbench: %s failed: %v\n", what, err)
		return false
	}
	r.lat = append(r.lat, ms(d))
	return true
}

// note records a single-request operation: a transport error or a non-2xx
// status is a failure.
func (r *recorder) note(what string, c call, err error) bool {
	return r.op(what, c.dur, statusErr(c, err))
}

func statusErr(c call, err error) error {
	if err == nil && c.status/100 != 2 {
		err = fmt.Errorf("status %d: %s", c.status, strings.TrimSpace(string(c.body)))
	}
	return err
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// roomForAnother reports whether one more unit, at the pace of the n done
// since start, would end by the deadline. The first unit always runs.
func roomForAnother(start time.Time, n int, deadline time.Time) bool {
	return n == 0 || !time.Now().Add(time.Since(start)/time.Duration(n)).After(deadline)
}

// stamp records the machine and build a run measured.
type stamp struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	CPUModel   string  `json:"cpu_model"`
	ExecTier   string  `json:"exec_default_tier"`
}

func newStamp(name string, seed int64, seconds float64, trace bool) stamp {
	return stamp{
		Workload: name, Seed: seed, Seconds: seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: cpuModel(),
		ExecTier: exec.DefaultMode.String(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process high-water RSS (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// traceOverhead replays under tr until the deadline, then replays the same
// units through an off tracer. The difference of the two wall times is the
// tracing overhead. The off pass's figures are discarded.
func traceOverhead(w workload, deadline time.Time, tr *tracer, m metricSet) error {
	start := time.Now()
	n, err := w.replay(func(int) bool { return time.Now().Before(deadline) }, tr, m)
	if err != nil {
		return err
	}
	traced := ms(time.Since(start))
	start = time.Now()
	if _, err := w.replay(func(done int) bool { return done < n }, &tracer{off: true}, metricSet{}); err != nil {
		return fmt.Errorf("untraced replay: %w", err)
	}
	plain := ms(time.Since(start))
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.traced_total_ms"] = traced
	m["trace.untraced_total_ms"] = plain
	m["trace.overhead_pct"] = (traced - plain) / plain * 100
	return nil
}

// clientHeapMB stops the server and empties its caches, then returns the
// live heap: what the benchmark's client holds (its inputs and the reply
// fields its checks read) beside the server's memory in peak_rss_mb.
func clientHeapMB(w workload) float64 {
	w.close()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // trace file directory
	sz       sizes
}

// runBench performs one run. A setup or transport failure is an error; a
// failed correctness check is reported in result.Correct with its reasons.
func runBench(o options) (result, []error, error) {
	var def *workloadDef
	for i := range workloadDefs {
		if workloadDefs[i].name == o.workload {
			def = &workloadDefs[i]
		}
	}
	if def == nil {
		return result{}, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	st := newStamp(o.workload, o.seed, o.seconds, o.trace)
	if b, err := json.Marshal(map[string]stamp{"stamp": st}); err == nil {
		fmt.Println(string(b))
	}

	var bad []error
	if err := checkSeeded(o.seed, func(s int64) string { return def.digest(s, o.sz) }); err != nil {
		bad = append(bad, err)
	}

	var setups []float64
	var w workload
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
		}
		start := time.Now()
		var err error
		if w, err = def.setup(o.seed, o.sz); err != nil {
			return result{}, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.close()

	rec := &recorder{}
	m := metricSet{}
	span := time.Duration(o.seconds * float64(time.Second))
	var defs []metricDef
	if !o.trace {
		defs = endToEnd
		start := time.Now()
		if err := w.drive(start.Add(span), rec, m); err != nil {
			bad = append(bad, err)
		}
		elapsed := time.Since(start).Seconds()
		rss, err := peakRSSMB()
		if err != nil {
			return result{}, nil, err
		}
		m["setup_s"] = median(setups)
		m["latency_p50_ms"] = quantile(rec.lat, 0.50)
		m["latency_p75_ms"] = quantile(rec.lat, 0.75)
		m["ops_per_s"] = float64(len(rec.lat)) / elapsed
		m["peak_rss_mb"] = rss
	} else {
		defs = perLayer
		if err := w.drive(time.Now().Add(span/2), rec, m); err != nil {
			bad = append(bad, err)
		}
		tr := &tracer{}
		if err := traceOverhead(w, time.Now().Add(span/4), tr, m); err != nil {
			bad = append(bad, err)
		}
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-%d.json", o.workload, o.seed))
		if err := tr.write(path, st); err != nil {
			return result{}, nil, fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.check(); err != nil {
		bad = append(bad, err)
	}
	if o.trace {
		m["client.heap_mb"] = clientHeapMB(w)
	}
	res := result{
		Correct:   len(bad) == 0,
		Attempted: rec.attempted,
		Failed:    rec.failed,
		Metrics:   m.emit(defs),
	}
	return res, bad, nil
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "analyze-cold, guru-session, profile-tune or batch-cluster")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 15, "measured seconds")
	trace := flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
	flag.StringVar(&o.out, "out", ".", "directory for trace files")
	flag.Parse()
	o.trace = *trace == 1
	o.sz = fullSizes
	if o.seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "suifxbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}

	res, bad, err := runBench(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "suifxbench: %v\n", err)
		os.Exit(1)
	}
	for _, e := range bad {
		fmt.Fprintf(os.Stderr, "suifxbench: check failed: %v\n", e)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "suifxbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}
