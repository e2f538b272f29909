package lin

import (
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// A Constraint is the inequality Expr >= 0.
type Constraint struct {
	E Expr
}

// String renders the constraint, e.g. "i - 1 >= 0".
func (c Constraint) String() string { return c.E.String() + " >= 0" }

// normalize divides the constraint by the GCD of its coefficients, tightening
// the constant term toward the feasible side (integer reasoning: a*x >= -b
// with gcd g on a implies g*(x') >= -b, i.e. x' >= ceil(-b/g)).
func (c Constraint) normalize() Constraint {
	if c.E.coefGCD() <= 1 {
		return c
	}
	out := Expr{terms: append([]term(nil), c.E.terms...), Const: c.E.Const}
	out.tighten()
	return Constraint{out}
}

// coefGCD returns the GCD of e's coefficients (0 for a constant).
func (e Expr) coefGCD() int64 {
	var g int64
	for _, t := range e.terms {
		if g = gcd64(g, t.c); g == 1 {
			break
		}
	}
	return g
}

// tighten divides e >= 0 by its coefficients' GCD in place. Only for an
// Expr whose terms no other value shares yet.
func (e *Expr) tighten() {
	g := e.coefGCD()
	if g <= 1 {
		return
	}
	for i := range e.terms {
		e.terms[i].c /= g
	}
	// e >= 0  ==  sum + Const >= 0  ==  sum >= -Const; divide by g and
	// round the bound up: sum/g >= ceil(-Const/g), so Const' = floor(Const/g).
	e.Const = floorDiv(e.Const, g)
}

func floorDiv(a, b int64) int64 {
	q := a / b
	if (a%b != 0) && ((a < 0) != (b < 0)) {
		q--
	}
	return q
}

// A System is a conjunction of linear constraints; its integer solutions form
// (the integer points of) a convex polyhedron. The zero value is the
// unconstrained system (the whole space).
type System struct {
	Cons []Constraint

	// empt caches the result of IsEmpty: 0 unknown, 1 empty, 2 nonempty.
	// Containment tests re-query emptiness of the same unchanged system many
	// times (once per candidate polyhedron in a section), so the cache turns
	// repeated Fourier–Motzkin runs into one. Every in-package mutation of
	// Cons resets it. Atomic because finished systems are shared read-only
	// across concurrent analyses (the summary cache), and the lazy memo write
	// is the one mutation that survives construction; racing fills are
	// idempotent — emptiness is a pure function of Cons.
	empt atomic.Int32
}

const (
	emptUnknown int32 = iota
	emptEmpty
	emptNonEmpty
)

// NewSystem returns an empty (unconstrained) system.
func NewSystem() *System { return &System{} }

// Clone returns an independent copy of s: the constraint slice is fresh, the
// constraint expressions are shared. Exprs are immutable once built (no
// Expr operation writes into existing terms), so sharing them is
// indistinguishable from a deep copy. The emptiness cache carries over — the clone has the identical
// constraint set.
func (s *System) Clone() *System {
	out := &System{Cons: make([]Constraint, len(s.Cons))}
	out.empt.Store(s.empt.Load())
	copy(out.Cons, s.Cons)
	return out
}

// AddGE adds the constraint e >= 0 and returns s for chaining.
func (s *System) AddGE(e Expr) *System {
	s.Cons = append(s.Cons, Constraint{e}.normalize())
	s.empt.Store(emptUnknown)
	return s
}

// AddLE adds e <= 0, i.e. -e >= 0.
func (s *System) AddLE(e Expr) *System { return s.AddGE(e.Scale(-1)) }

// AddEq adds e == 0 as a pair of inequalities.
func (s *System) AddEq(e Expr) *System { return s.AddGE(e).AddLE(e) }

// AddRange constrains lo <= v <= hi for affine bounds lo, hi.
func (s *System) AddRange(v string, lo, hi Expr) *System {
	s.AddGE(Var(v).Sub(lo)) // v - lo >= 0
	s.AddGE(hi.Sub(Var(v))) // hi - v >= 0
	return s
}

// Vars returns all variables mentioned in s, sorted.
func (s *System) Vars() []string { return consVars(s.Cons) }

func consVars(cons []Constraint) []string {
	n := 0
	for _, c := range cons {
		n += len(c.E.terms)
	}
	vs := make([]string, 0, n)
	for _, c := range cons {
		for _, t := range c.E.terms {
			vs = append(vs, t.v)
		}
	}
	sort.Strings(vs)
	return slices.Compact(vs)
}

// Intersect returns the conjunction of s and o.
func (s *System) Intersect(o *System) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons)+len(o.Cons))}
	out.Cons = append(out.Cons, s.Cons...)
	out.Cons = append(out.Cons, o.Cons...)
	return out
}

// Substitute replaces variable v by the affine expression repl everywhere.
func (s *System) Substitute(v string, repl Expr) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons))}
	for _, c := range s.Cons {
		out.Cons = append(out.Cons, Constraint{c.E.Substitute(v, repl)}.normalize())
	}
	return out
}

// Rename renames variable old to new everywhere.
func (s *System) Rename(old, new string) *System {
	out := &System{Cons: make([]Constraint, 0, len(s.Cons))}
	for _, c := range s.Cons {
		out.Cons = append(out.Cons, Constraint{c.E.Rename(old, new)})
	}
	return out
}

// ContainsPoint reports whether the integer assignment env satisfies every
// constraint. Variables of s missing from env make the result false.
func (s *System) ContainsPoint(env map[string]int64) bool {
	for _, c := range s.Cons {
		v, err := c.E.Eval(env)
		if err != nil || v < 0 {
			return false
		}
	}
	return true
}

// Eliminate removes variable v by Fourier–Motzkin elimination, producing a
// system over the remaining variables whose rational solution set is the
// projection of s. This is the paper's closure operator building block.
func (s *System) Eliminate(v string) *System { return &System{Cons: eliminate(s.Cons, v)} }

// eliminate is Eliminate on a constraint list, returning a fresh list. The
// combined constraints' terms are carved from one shared, capacity-capped
// block: they are never appended to, so sharing the block is invisible.
func eliminate(in []Constraint, v string) []Constraint {
	var nl, nu, lterms, uterms int
	for _, c := range in {
		switch co := c.E.CoefOf(v); {
		case co > 0:
			nl++
			lterms += len(c.E.terms)
		case co < 0:
			nu++
			uterms += len(c.E.terms)
		}
	}
	cons := make([]Constraint, 0, len(in)-nl-nu+nl*nu)
	bounds := make([]Constraint, nl+nu) // lower bounds, then upper bounds
	li, ui := 0, nl
	for _, c := range in {
		switch co := c.E.CoefOf(v); {
		case co > 0:
			bounds[li] = c // co*v + r >= 0  =>  v >= -r/co
			li++
		case co < 0:
			bounds[ui] = c // co*v + r >= 0  =>  v <= r/(-co)
			ui++
		default:
			cons = append(cons, c)
		}
	}
	// Each combination has at most the terms of its two parents.
	block := make([]term, 0, nu*lterms+nl*uterms)
	for _, lo := range bounds[:nl] {
		a := lo.E.CoefOf(v)
		for _, up := range bounds[nl:] {
			b := -up.E.CoefOf(v)
			// b*(a*v + rl) + a*(-b*v + ru') combination removes v:
			// b*lo + a*up >= 0. v cancels in the merge; the result owns its
			// slice of the block, so it is tightened in place.
			var comb Expr
			comb, block = linCombInto(block, b, lo.E, a, up.E)
			comb.tighten()
			cons = append(cons, Constraint{comb})
		}
	}
	return simplified(cons[:0], cons)
}

// Project eliminates every variable not in keep, projecting the polyhedron
// onto the kept dimensions.
func (s *System) Project(keep map[string]bool) *System {
	out := s.Clone()
	for _, v := range s.Vars() {
		if !keep[v] {
			out = out.Eliminate(v)
		}
	}
	return out
}

// EliminateVars eliminates each named variable in turn.
func (s *System) EliminateVars(vars ...string) *System {
	out := s
	for _, v := range vars {
		out = out.Eliminate(v)
	}
	return out
}

// IsEmpty reports whether the system has no rational solutions (a sound,
// conservative test for integer emptiness: true means definitely no integer
// points; false means there may be some).
func (s *System) IsEmpty() bool {
	if s == nil {
		return true
	}
	if e := s.empt.Load(); e != emptUnknown {
		return e == emptEmpty
	}
	empty := s.isEmptySlow()
	if empty {
		s.empt.Store(emptEmpty)
	} else {
		s.empt.Store(emptNonEmpty)
	}
	return empty
}

func (s *System) isEmptySlow() bool {
	cur := s.simplify().Cons
	for _, v := range consVars(cur) {
		cur = eliminate(cur, v)
		if hasContradiction(cur) {
			return true
		}
	}
	return hasContradiction(cur)
}

func hasContradiction(cons []Constraint) bool {
	for _, c := range cons {
		if c.E.IsConst() && c.E.Const < 0 {
			return true
		}
	}
	return false
}

// simplify drops trivially-true constraints and duplicate constraints
// (keeping the first occurrence), and returns the one-constraint system
// {-1 >= 0} if a constant contradiction is present. A nil receiver stays nil.
func (s *System) simplify() *System {
	if s == nil {
		return nil
	}
	return &System{Cons: simplified(make([]Constraint, 0, len(s.Cons)), s.Cons)}
}

// simplified appends the constraints of cons that simplify keeps to dst and
// returns the result. dst may be cons[:0]: the write index never passes the
// read index, so a freshly built list is compacted in place. Duplicates are
// found by scanning the kept constraints with Equal, which rejects most
// candidates on the constant or the term count; the lists are short (almost
// all under 16 constraints on corpus programs), so a scan beats a map.
func simplified(dst, cons []Constraint) []Constraint {
next:
	for _, c := range cons {
		if c.E.IsConst() {
			if c.E.Const < 0 {
				return []Constraint{{NewExpr(-1)}}
			}
			continue
		}
		for _, k := range dst {
			if k.E.Equal(c.E) {
				continue next
			}
		}
		dst = append(dst, c)
	}
	return dst
}

// Implies reports whether every rational point of s satisfies c, tested by
// checking that s ∧ ¬c (with the integer gap e <= -1) is empty.
func (s *System) Implies(c Constraint) bool {
	// Fast path: some constraint of s dominates c syntactically — identical
	// coefficients with an equal-or-tighter constant (a + x >= 0 with a <= b
	// implies b + x >= 0). This catches the overwhelmingly common case of
	// duplicated constraints without running an elimination.
	for _, sc := range s.Cons {
		if sc.E.Const <= c.E.Const && sameCoefs(sc.E, c.E) {
			return true
		}
	}
	neg := s.Clone()
	// ¬(e >= 0) over integers is e <= -1, i.e. -e - 1 >= 0.
	neg.AddGE(c.E.Scale(-1).AddConst(-1))
	return neg.IsEmpty()
}

// ContainedIn reports whether s ⊆ o (conservatively: true is definite).
func (s *System) ContainedIn(o *System) bool {
	if s.IsEmpty() {
		return true
	}
	for _, c := range o.Cons {
		if !s.Implies(c) {
			return false
		}
	}
	return true
}

// String renders the system deterministically.
func (s *System) String() string {
	if len(s.Cons) == 0 {
		return "{true}"
	}
	parts := make([]string, len(s.Cons))
	for i, c := range s.Cons {
		parts[i] = c.String()
	}
	sort.Strings(parts)
	return "{" + strings.Join(parts, ", ") + "}"
}
