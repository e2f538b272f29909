package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

// smoke runs one workload at the tiny sizes with every check on.
func smoke(t *testing.T, name string, trace bool) result {
	t.Helper()
	res, bad, err := runBench(options{
		workload: name, seed: 7, seconds: 1, trace: trace, out: t.TempDir(), sz: smokeSizes,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, e := range bad {
		t.Errorf("%s: check failed: %v", name, e)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	return res
}

func TestSmokeEveryWorkload(t *testing.T) {
	for _, def := range workloadDefs {
		for _, trace := range []bool{false, true} {
			res := smoke(t, def.name, trace)
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", def.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if got, ok := res.Metrics[d.Name]; !ok || got.Unit != d.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", def.name, trace, d.Name, got, d.Unit)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if res.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", def.name, d.Name, res.Metrics[d.Name].Value)
					}
				}
			}
		}
	}
}

// driven sets a workload up at the tiny sizes and runs its closed loop.
func driven(t *testing.T, name string) workload {
	t.Helper()
	for _, def := range workloadDefs {
		if def.name != name {
			continue
		}
		w, err := def.setup(7, smokeSizes)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(w.close)
		if err := w.drive(time.Now().Add(time.Second), &recorder{}, metricSet{}); err != nil {
			t.Fatal(err)
		}
		if err := w.check(); err != nil {
			t.Fatalf("%s: untampered check failed: %v", name, err)
		}
		return w
	}
	t.Fatalf("no workload %s", name)
	return nil
}

// TestChecksCatchCorruption tampers with one received result per workload
// and requires its check to fail.
func TestChecksCatchCorruption(t *testing.T) {
	t.Run("analyze-cold flipped verdict", func(t *testing.T) {
		w := driven(t, "analyze-cold").(*analyzeCold)
		loops := w.sent[0].loops
		loops[len(loops)-1].chosen = !loops[len(loops)-1].chosen
		if w.check() == nil {
			t.Fatal("check accepted a flipped loop verdict")
		}
	})
	t.Run("batch-cluster tampered hash", func(t *testing.T) {
		w := driven(t, "batch-cluster").(*batchCluster)
		w.sent[0].hashes[0] = "00" + w.sent[0].hashes[0][2:]
		if w.check() == nil {
			t.Fatal("check accepted a tampered result_sha256")
		}
	})
	t.Run("guru-session rejected assertion", func(t *testing.T) {
		w := driven(t, "guru-session").(*guruSession)
		for _, r := range w.runs {
			for k := range r.outcomes {
				if r.outcomes[k].accepted {
					r.outcomes[k].accepted = false
					if w.check() == nil {
						t.Fatal("check accepted a dropped assertion")
					}
					return
				}
			}
		}
		t.Fatal("no accepted assertion to tamper with")
	})
	t.Run("profile-tune tampered tune reply", func(t *testing.T) {
		w := driven(t, "profile-tune").(*profileTune)
		for i, s := range w.rounds[0] {
			if s.req.kind == "tune" {
				w.rounds[0][i].body = append([]byte(" "), s.body...)
				if w.check() == nil {
					t.Fatal("check accepted a changed tune reply")
				}
				return
			}
		}
		t.Fatal("no tune reply to tamper with")
	})
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !valid.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("bad metric %q unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesDeclared keeps BENCHMARK.json and this program's
// metric and workload sets in step.
func TestBenchmarkJSONMatchesDeclared(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", what, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", what, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloadDefs) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(spec.Workloads), len(workloadDefs))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %s, program %s", i, w.Name, workloadDefs[i].name)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	for _, def := range workloadDefs {
		if err := checkSeeded(11, func(s int64) string { return def.digest(s, smokeSizes) }); err != nil {
			t.Errorf("%s: %v", def.name, err)
		}
	}
	if checkSeeded(11, func(int64) string { return "same" }) == nil {
		t.Error("checkSeeded accepted inputs that ignore the seed")
	}
}

// TestOffTracer checks that an off tracer runs the calls and records
// nothing, so the untraced replay pass does the same layer work.
func TestOffTracer(t *testing.T) {
	tr := &tracer{off: true}
	ran := 0
	root := tr.root("r")
	if s := tr.call(root, "c", func() { ran++ }); s != nil || s.ms() != 0 {
		t.Errorf("off tracer returned span %+v", s)
	}
	tr.close(root)
	if ran != 1 || len(tr.spans) != 0 {
		t.Errorf("ran %d calls, recorded %d spans; want 1, 0", ran, len(tr.spans))
	}
}
