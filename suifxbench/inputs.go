package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"suifx/internal/corpus"
)

// sizes are the input sizes of one benchmark configuration: fullSizes for
// the measured runs, smokeSizes for the self-tests.
type sizes struct {
	analyzeLines int // analyze-cold program size
	analyzeMax   int // programs generated for one analyze-cold run
	sessionLines int // guru-session program size
	sessionMax   int // sessions generated for one guru-session run
	batchItems   int // items per batch-cluster manifest
	batchLines   int // batch item program size
	batchMax     int // manifests generated for one batch-cluster run
	profile      []string
	tune         []string
}

var fullSizes = sizes{
	analyzeLines: 2000, analyzeMax: 128,
	sessionLines: 1500, sessionMax: 64,
	batchItems: 24, batchLines: 2000, batchMax: 8,
	profile: []string{"mdg", "hydro", "arc3d", "flo88", "applu"},
	tune:    []string{"hydro", "chain", "outer"},
}

var smokeSizes = sizes{
	analyzeLines: 300, analyzeMax: 4,
	sessionLines: 400, sessionMax: 2,
	batchItems: 12, batchLines: 300, batchMax: 2,
	profile: []string{"applu", "chain"},
	tune:    []string{"chain"},
}

// corpusConfig is the SizeLadder "5k" tier's shape at the given size.
func corpusConfig(lines int) corpus.Config {
	t, ok := corpus.TierByName("5k")
	if !ok {
		panic("corpus ladder lost its 5k tier")
	}
	cfg := t.Cfg
	cfg.TargetLines = lines
	return cfg
}

// seedStream derives distinct program seeds from the workload seed; label
// keeps the workloads' streams apart.
type seedStream struct {
	rng  *rand.Rand
	seen map[int64]bool
}

func newSeedStream(seed int64, label string) *seedStream {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s/%d", label, seed)))
	var s int64
	for _, b := range h[:8] {
		s = s<<8 | int64(b)
	}
	return &seedStream{rng: rand.New(rand.NewSource(s)), seen: map[int64]bool{}}
}

func (s *seedStream) next() int64 {
	for {
		v := s.rng.Int63n(1 << 40)
		if !s.seen[v] {
			s.seen[v] = true
			return v
		}
	}
}

// genPrograms makes n distinct corpus programs of the given size.
func genPrograms(seed int64, label string, n, lines int) []*corpus.Program {
	ss := newSeedStream(seed, label)
	cfg := corpusConfig(lines)
	out := make([]*corpus.Program, n)
	for i := range out {
		out[i] = corpus.Generate(ss.next(), cfg)
	}
	return out
}

// manifestDigest fingerprints a program list by its manifest SHA256s.
func manifestDigest(progs []*corpus.Program) string {
	h := sha256.New()
	for _, p := range progs {
		h.Write([]byte(p.Manifest.SHA256))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// batchManifest is one batch-cluster request body, items in (seed, config)
// form: the server regenerates each program from the pair.
type batchManifest struct {
	items []corpus.BatchItem
}

// programs regenerates the manifest's programs, parallel to items.
func (m batchManifest) programs() []*corpus.Program {
	out := make([]*corpus.Program, len(m.items))
	for i, it := range m.items {
		out[i] = corpus.Generate(it.Seed, *it.Config)
	}
	return out
}

// genBatches makes n manifests of `items` items each. A quarter of a
// manifest's items repeat an earlier one: half of those right after their
// original, so they join its in-flight analysis, and half four to six items
// later, so they hit a finished one while it is still cached. It needs at
// least 12 items per manifest.
func genBatches(seed int64, n, items, lines int) []batchManifest {
	ss := newSeedStream(seed, "batch-cluster")
	cfg := corpusConfig(lines)
	repeats := items / 4
	adjacent := repeats / 2
	unique := items - repeats
	out := make([]batchManifest, n)
	for b := range out {
		seeds := make([]int64, unique)
		for i := range seeds {
			seeds[i] = ss.next()
		}
		perm := ss.rng.Perm(unique - 6)
		joinAfter := map[int]bool{}
		for _, i := range perm[:adjacent] {
			joinAfter[i] = true
		}
		late := map[int][]int64{} // unique index → repeats placed after it
		for _, i := range perm[adjacent:repeats] {
			j := i + 4 + ss.rng.Intn(3)
			late[j] = append(late[j], seeds[i])
		}
		var m batchManifest
		add := func(s int64) {
			c := cfg
			m.items = append(m.items, corpus.BatchItem{Seed: s, Config: &c})
		}
		for i, s := range seeds {
			add(s)
			if joinAfter[i] {
				add(s)
			}
			for _, r := range late[i] {
				add(r)
			}
		}
		out[b] = m
	}
	return out
}

// checkSeeded is the reproducibility check on a generator: the same seed
// must regenerate byte-identical inputs, a different seed different ones.
func checkSeeded(seed int64, digest func(seed int64) string) error {
	a, b := digest(seed), digest(seed)
	if a != b {
		return fmt.Errorf("seed %d regenerated different inputs: %s vs %s", seed, a, b)
	}
	if c := digest(seed + 1); c == a {
		return fmt.Errorf("seeds %d and %d generated identical inputs %s", seed, seed+1, a)
	}
	return nil
}
