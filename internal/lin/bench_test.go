package lin_test

import (
	"sort"
	"sync"
	"testing"

	"suifx/internal/corpus"
	"suifx/internal/lin"
	"suifx/internal/minif"
	"suifx/internal/summary"
)

// The BenchmarkLin* rows time the polyhedral primitives on the inputs the
// analysis really produces: the per-iteration array sections that summary
// analysis computes for the corpus "5k" tier, harvested once per process at
// run time. Each op is one system or one section pair, cycling through the
// harvested set; run with -benchmem for allocs/op.

type linInputs struct {
	systems []*lin.System
	first   []string          // each system's first variable in name order
	pairs   [][2]*lin.Section // (reads, writes) of one array in one loop body
}

var (
	inputsOnce sync.Once
	inputs     linInputs
	inputsErr  error

	// Sinks keep the measured calls' results alive.
	sinkBool    bool
	sinkSystem  *lin.System
	sinkSection *lin.Section
)

func corpusInputs(b *testing.B) *linInputs {
	inputsOnce.Do(func() {
		var tier corpus.Tier
		for _, t := range corpus.SizeLadder() {
			if t.Name == "5k" {
				tier = t
			}
		}
		p := tier.Generate()
		prog, err := minif.Parse(p.Name, p.Source)
		if err != nil {
			inputsErr = err
			return
		}
		sum := summary.Analyze(prog)
		// Map iteration order is random; sort by rendering so every run
		// cycles through the same sequence.
		type keyed struct {
			key  string
			r, w *lin.Section
		}
		var ks []keyed
		for _, tup := range sum.BodySum {
			for _, a := range tup.Arrays {
				w := a.Writes()
				if len(a.R.Polys) > 0 && len(w.Polys) > 0 {
					ks = append(ks, keyed{a.R.String() + "|" + w.String(), a.R, w})
				}
			}
		}
		sort.Slice(ks, func(i, j int) bool { return ks[i].key < ks[j].key })
		for _, k := range ks {
			inputs.pairs = append(inputs.pairs, [2]*lin.Section{k.r, k.w})
			for _, s := range [2]*lin.Section{k.r, k.w} {
				for _, poly := range s.Polys {
					if vs := poly.Vars(); len(vs) > 0 {
						inputs.systems = append(inputs.systems, poly)
						inputs.first = append(inputs.first, vs[0])
					}
				}
			}
		}
	})
	if inputsErr != nil {
		b.Fatal(inputsErr)
	}
	if len(inputs.systems) == 0 || len(inputs.pairs) == 0 {
		b.Fatal("corpus 5k tier yielded no array sections")
	}
	return &inputs
}

// fresh copies p without its emptiness memo, so every op pays for a real
// Fourier–Motzkin run. The constraints themselves are shared.
func fresh(p *lin.System) *lin.System { return &lin.System{Cons: p.Cons} }

func freshSection(s *lin.Section) *lin.Section {
	out := &lin.Section{NDim: s.NDim, Exact: s.Exact, Polys: make([]*lin.System, len(s.Polys))}
	for i, p := range s.Polys {
		out.Polys[i] = fresh(p)
	}
	return out
}

func BenchmarkLinIsEmpty(b *testing.B) {
	in := corpusInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = fresh(in.systems[i%len(in.systems)]).IsEmpty()
	}
}

func BenchmarkLinEliminate(b *testing.B) {
	in := corpusInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % len(in.systems)
		sinkSystem = in.systems[k].Eliminate(in.first[k])
	}
}

func BenchmarkLinSectionUnion(b *testing.B) {
	in := corpusInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := in.pairs[i%len(in.pairs)]
		sinkSection = freshSection(p[0]).Union(freshSection(p[1]))
	}
}

func BenchmarkLinSectionSubtract(b *testing.B) {
	in := corpusInputs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := in.pairs[i%len(in.pairs)]
		sinkSection = freshSection(p[0]).Subtract(freshSection(p[1]))
	}
}
