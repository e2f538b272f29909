package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"suifx/internal/depend"
	"suifx/internal/exec"
	"suifx/internal/ir"
	"suifx/internal/parallel"
)

// maxOps bounds every check execution, as the server bounds /v1/profile.
const maxOps = 50_000_000

// checkSample bounds how many programs one run's check recomputes, which
// costs about as much as the server's own work on them; the seed picks
// which, so runs with different seeds check different programs.
const checkSample = 16

// sample returns the sorted indexes of up to checkSample of n units.
func sample(seed int64, n int) []int {
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	if n > checkSample {
		idx = idx[:checkSample]
	}
	sort.Ints(idx)
	return idx
}

// forEachParallel runs fn(0..n-1) on nproc goroutines and joins the errors.
func forEachParallel(n int, fn func(i int) error) error {
	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// validatePlan runs the chosen loops of pr as a two-worker plan on the
// default engine and checks the memory it leaves against a sequential
// tree-walker run. Only the state a program leaves behind is compared:
// COMMON storage and the main program's variables, less what a chosen loop
// privatizes (its index included), which is dead after the loop. Locals of
// subroutines are dead after return, and workers keep private copies of
// those called inside a parallel loop. It returns the tree-walker's
// operation count.
func validatePlan(prog *ir.Program, pr *parallel.Result) (int64, error) {
	seq := exec.New(prog)
	seq.Mode = exec.ModeTree
	seq.MaxOps = maxOps
	if err := seq.Run(); err != nil {
		return 0, fmt.Errorf("tree-walker run: %w", err)
	}
	par := exec.NewWithPlan(prog, parallel.BuildPlan(pr, 2))
	par.MaxOps = maxOps
	if err := par.Run(); err != nil {
		return 0, fmt.Errorf("two-worker run: %w", err)
	}
	n := int64(seq.ArenaSize())
	keep := make([]bool, n)
	mark := func(proc, name string, v bool) {
		if lo, hi, ok := seq.SymRange(proc, name); ok {
			for i := lo; i <= hi && i < n; i++ {
				keep[i] = v
			}
		}
	}
	for _, p := range prog.Procs {
		for _, sym := range p.Syms {
			if p.IsMain || sym.Common != "" {
				mark(p.Name, sym.Name, true)
			}
		}
	}
	for _, li := range pr.Ordered {
		if !li.Chosen {
			continue
		}
		for _, vr := range li.Dep.Vars {
			if vr.Class == depend.ClassPrivate || vr.Class == depend.ClassIndex {
				mark(li.Region.Proc.Name, vr.Sym.Name, false)
			}
		}
	}
	seqA := append([]float64(nil), seq.Arena()[:n]...)
	parA := append([]float64(nil), par.Arena()[:n]...)
	for i, k := range keep {
		if !k {
			seqA[i], parA[i] = 0, 0
		}
	}
	if err := exec.Validate(seqA, parA, 1e-9); err != nil {
		return 0, fmt.Errorf("two-worker plan disagrees with the tree-walker: %w", err)
	}
	return seq.Ops(), nil
}
