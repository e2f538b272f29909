package lin

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
)

// checkTerms fails unless e's terms hold the representation invariant:
// strictly increasing variable names and no zero coefficient.
func checkTerms(t *testing.T, what string, e Expr) {
	t.Helper()
	for i, tm := range e.terms {
		if tm.c == 0 {
			t.Fatalf("%s: zero coefficient stored for %q in %v", what, tm.v, e)
		}
		if i > 0 && e.terms[i-1].v >= tm.v {
			t.Fatalf("%s: terms out of order (%q before %q) in %v", what, e.terms[i-1].v, tm.v, e)
		}
	}
}

// TestExprOpsDoNotMutateInputs: terms are shared between values, so no
// operation may write through an operand's term slice. Every public op runs
// on operands that share terms with each other, and all of them must render
// exactly as before afterwards.
func TestExprOpsDoNotMutateInputs(t *testing.T) {
	a := Term("i", 2).Sub(Term("j", 3)).Add(Term("k", 4)).AddConst(5) // 2i - 3j + 4k + 5
	b := Var("j").Sub(Term("k", 2)).Add(Var("l")).AddConst(-1)        // j - 2k + l - 1
	shared := a.AddConst(7)                                           // shares a's terms
	inputs := []Expr{a, b, shared}
	before := make([]string, len(inputs))
	for i, e := range inputs {
		before[i] = e.String()
	}
	ops := map[string]func() Expr{
		"Add":             func() Expr { return a.Add(b) },
		"Add(self)":       func() Expr { return a.Add(shared) },
		"Sub":             func() Expr { return a.Sub(b) },
		"Sub(cancel)":     func() Expr { return a.Sub(shared) },
		"Scale(-1)":       func() Expr { return a.Scale(-1) },
		"Scale(1)":        func() Expr { return a.Scale(1) },
		"Scale(3)":        func() Expr { return shared.Scale(3) },
		"Scale(0)":        func() Expr { return a.Scale(0) },
		"AddConst":        func() Expr { return shared.AddConst(-9) },
		"Substitute":      func() Expr { return a.Substitute("j", b) },
		"Substitute(own)": func() Expr { return a.Substitute("i", Var("i").AddConst(1)) },
		"Substitute(abs)": func() Expr { return a.Substitute("zz", b) },
		"Rename":          func() Expr { return a.Rename("i", "z") },
		"Rename(merge)":   func() Expr { return a.Rename("i", "k") },
		"Rename(front)":   func() Expr { return shared.Rename("k", "a") },
		"Clone":           func() Expr { return shared.Clone() },
		"normalize": func() Expr {
			s := NewSystem().AddGE(a.Scale(4)).AddGE(shared.Scale(6).AddConst(3))
			return s.Cons[1].E
		},
		"Eliminate": func() Expr {
			s := NewSystem().AddGE(a).AddGE(b.Scale(-1)).AddGE(shared.Sub(b))
			p := s.Eliminate("j")
			if len(p.Cons) == 0 {
				return Expr{}
			}
			return p.Cons[0].E
		},
	}
	names := make([]string, 0, len(ops))
	for n := range ops {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		out := ops[n]()
		checkTerms(t, n, out)
		// Chain a second op on the result: a result that shares an input's
		// terms must not leak a later write back into that input.
		checkTerms(t, n+"+AddConst.Sub", out.AddConst(1).Sub(Var("i")))
		for i, e := range inputs {
			if got := e.String(); got != before[i] {
				t.Fatalf("%s mutated input %d: %q became %q", n, i, before[i], got)
			}
			checkTerms(t, n+" input", e)
		}
	}
}

// TestEliminateLeavesSystemUnchanged: Fourier–Motzkin builds new constraints
// from the old ones; the source system must render identically afterwards.
func TestEliminateLeavesSystemUnchanged(t *testing.T) {
	s := NewSystem().
		AddRange("i", NewExpr(1), Var("n")).
		AddRange("j", Var("i"), Var("n").AddConst(-1)).
		AddEq(Var("$d0").Sub(Var("i")).Sub(Term("j", 2)))
	before := s.String()
	for _, v := range s.Vars() {
		s.Eliminate(v)
		s.Substitute(v, Var("q").AddConst(2))
		s.Rename(v, "q")
	}
	s.IsEmpty()
	if got := s.String(); got != before {
		t.Fatalf("system changed by read-only operations:\n%s\n%s", before, got)
	}
}

// TestSharedSystemsConcurrent runs emptiness tests and section unions from
// many goroutines over systems whose constraints share one set of Exprs.
// Under -race this proves the sharing contract; without it, it still checks
// that every goroutine sees the sequential answers.
func TestSharedSystemsConcurrent(t *testing.T) {
	lo, hi := Var("i").AddConst(-1), Var("n").Sub(Var("i"))
	dim := Var("$d0").Sub(Var("i"))
	var polys []*System
	for k := int64(0); k < 6; k++ {
		s := NewSystem().AddGE(lo).AddGE(hi).AddEq(dim.AddConst(-k))
		if k%2 == 1 {
			s.AddGE(Var("i").Scale(-1).AddConst(k)) // i <= k
		}
		polys = append(polys, s)
	}
	polys = append(polys, NewSystem().AddGE(lo).AddGE(lo.Scale(-1).AddConst(-1))) // empty
	fresh := func() []*System {
		out := make([]*System, len(polys))
		for i, p := range polys {
			out[i] = &System{Cons: p.Cons} // shares every constraint, no memo
		}
		return out
	}
	union := func(ps []*System) string {
		u := EmptySection(1)
		for _, p := range ps {
			u = u.Union(NewSection(1, p))
		}
		return u.String()
	}
	wantEmpty := make([]bool, len(polys))
	for i, p := range fresh() {
		wantEmpty[i] = p.IsEmpty()
	}
	wantUnion := union(fresh())

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each goroutine tests its own memo-less copies (sharing every
			// constraint), then unions the shared polys themselves, racing
			// the other goroutines' emptiness-cache fills.
			ps := fresh()
			for i, p := range ps {
				if p.IsEmpty() != wantEmpty[i] {
					errs <- fmt.Errorf("IsEmpty(poly %d) = %v, want %v", i, !wantEmpty[i], wantEmpty[i])
					return
				}
			}
			if got := union(ps); got != wantUnion {
				errs <- fmt.Errorf("Union = %s, want %s", got, wantUnion)
			}
			if got := union(polys); got != wantUnion {
				errs <- fmt.Errorf("Union over shared polys = %s, want %s", got, wantUnion)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// refExpr is a map-based affine expression, kept only in this file as the
// oracle for the sorted-term representation: a map has no order or sharing
// to get wrong.
type refExpr struct {
	coef  map[string]int64
	konst int64
}

func refOf(v string, c int64) refExpr {
	r := refExpr{coef: map[string]int64{}}
	if c != 0 {
		r.coef[v] = c
	}
	return r
}

func (r refExpr) lin(k int64, o refExpr) refExpr {
	out := refExpr{coef: map[string]int64{}, konst: r.konst + k*o.konst}
	for v, c := range r.coef {
		out.coef[v] = c
	}
	for v, c := range o.coef {
		if n := out.coef[v] + k*c; n == 0 {
			delete(out.coef, v)
		} else {
			out.coef[v] = n
		}
	}
	return out
}

func (r refExpr) scale(k int64) refExpr {
	out := refExpr{coef: map[string]int64{}, konst: r.konst * k}
	if k == 0 {
		out.konst = 0
		return out
	}
	for v, c := range r.coef {
		out.coef[v] = c * k
	}
	return out
}

func (r refExpr) substitute(v string, repl refExpr) refExpr {
	c, ok := r.coef[v]
	if !ok {
		return r
	}
	return r.lin(-c, refOf(v, 1)).lin(c, repl)
}

func (r refExpr) rename(old, new string) refExpr {
	c, ok := r.coef[old]
	if !ok {
		return r
	}
	return r.lin(-c, refOf(old, 1)).lin(c, refOf(new, 1))
}

func (r refExpr) vars() []string {
	vs := make([]string, 0, len(r.coef))
	for v := range r.coef {
		vs = append(vs, v)
	}
	sort.Strings(vs)
	return vs
}

func (r refExpr) eval(env map[string]int64) int64 {
	sum := r.konst
	for v, c := range r.coef {
		sum += c * env[v]
	}
	return sum
}

func (r refExpr) String() string {
	var b strings.Builder
	for i, v := range r.vars() {
		c := r.coef[v]
		switch {
		case i == 0 && c == 1:
			b.WriteString(v)
		case i == 0 && c == -1:
			b.WriteString("-" + v)
		case i == 0:
			fmt.Fprintf(&b, "%d*%s", c, v)
		case c == 1:
			b.WriteString(" + " + v)
		case c == -1:
			b.WriteString(" - " + v)
		case c > 0:
			fmt.Fprintf(&b, " + %d*%s", c, v)
		default:
			fmt.Fprintf(&b, " - %d*%s", -c, v)
		}
	}
	switch {
	case len(r.coef) == 0:
		fmt.Fprintf(&b, "%d", r.konst)
	case r.konst > 0:
		fmt.Fprintf(&b, " + %d", r.konst)
	case r.konst < 0:
		fmt.Fprintf(&b, " - %d", -r.konst)
	}
	return b.String()
}

// TestExprMatchesMapReference drives random op chains through Expr and the
// map-based reference side by side, comparing String, Vars and Eval after
// every step.
func TestExprMatchesMapReference(t *testing.T) {
	names := []string{"$d0", "$d1", "%call.n.3", "a", "i", "j", "k", "n", "zz"}
	env := map[string]int64{}
	for i, v := range names {
		env[v] = int64(3*i - 7)
	}
	type pair struct {
		e Expr
		r refExpr
	}
	rng := rand.New(rand.NewSource(1))
	randPair := func() pair {
		v := names[rng.Intn(len(names))]
		c := rng.Int63n(9) - 4
		k := rng.Int63n(21) - 10
		return pair{Term(v, c).AddConst(k), refOf(v, c).lin(1, refExpr{konst: k})}
	}
	for chain := 0; chain < 400; chain++ {
		x, y := randPair(), randPair()
		for step := 0; step < 12; step++ {
			v, w := names[rng.Intn(len(names))], names[rng.Intn(len(names))]
			k := rng.Int63n(7) - 3
			var op string
			switch rng.Intn(7) {
			case 0:
				op, x = "Add", pair{x.e.Add(y.e), x.r.lin(1, y.r)}
			case 1:
				op, x = "Sub", pair{x.e.Sub(y.e), x.r.lin(-1, y.r)}
			case 2:
				op, x = "Scale", pair{x.e.Scale(k), x.r.scale(k)}
			case 3:
				op, x = "AddConst", pair{x.e.AddConst(k), x.r.lin(1, refExpr{konst: k})}
			case 4:
				op, x = "Substitute", pair{x.e.Substitute(v, y.e), x.r.substitute(v, y.r)}
			case 5:
				op, x = "Rename", pair{x.e.Rename(v, w), x.r.rename(v, w)}
			default:
				op, x, y = "swap", y, randPair()
			}
			checkTerms(t, op, x.e)
			if got, want := x.e.String(), x.r.String(); got != want {
				t.Fatalf("chain %d step %d %s: String = %q, reference %q", chain, step, op, got, want)
			}
			if got, want := fmt.Sprint(x.e.Vars()), fmt.Sprint(x.r.vars()); got != want {
				t.Fatalf("chain %d step %d %s: Vars = %s, reference %s", chain, step, op, got, want)
			}
			if got, err := x.e.Eval(env); err != nil || got != x.r.eval(env) {
				t.Fatalf("chain %d step %d %s: Eval = %d (%v), reference %d", chain, step, op, got, err, x.r.eval(env))
			}
			for _, u := range names {
				if x.e.CoefOf(u) != x.r.coef[u] {
					t.Fatalf("chain %d step %d %s: CoefOf(%s) = %d, reference %d", chain, step, op, u, x.e.CoefOf(u), x.r.coef[u])
				}
			}
			if !x.e.Equal(x.e.Clone()) || x.e.Equal(x.e.AddConst(1)) {
				t.Fatalf("chain %d step %d %s: Equal is not consistent on %v", chain, step, op, x.e)
			}
		}
	}
}

// TestSimplifyDedupKeepsFirst: duplicate constraints collapse onto their
// first occurrence (order preserved), however the duplicate was built.
func TestSimplifyDedupKeepsFirst(t *testing.T) {
	a := Var("i").Sub(Var("j")).AddConst(2)
	b := Var("n").Sub(Var("i"))
	c := Var("j").AddConst(-1)
	s := &System{Cons: []Constraint{{a}, {b}, {Var("i").AddConst(2).Sub(Var("j"))}, {NewExpr(4)}, {c}, {b.Add(NewExpr(0))}, {a}}}
	got := s.simplify()
	want := []Expr{a, b, c}
	if len(got.Cons) != len(want) {
		t.Fatalf("simplify kept %d constraints (%s), want %d", len(got.Cons), got, len(want))
	}
	for i, e := range want {
		if !got.Cons[i].E.Equal(e) {
			t.Fatalf("constraint %d = %v, want %v", i, got.Cons[i].E, e)
		}
	}
}
