// Package lin implements systems of integer linear inequalities and the
// polyhedral operations the SUIF array analyses are built on: intersection,
// union-of-polyhedra array sections, Fourier–Motzkin projection (the paper's
// "closure" operator), emptiness and containment tests.
//
// Array regions are represented, exactly as in the paper (§2.4, §5.2.1), as
// sets of systems of linear inequalities whose integer solutions are the
// accessed index tuples.
package lin

import (
	"fmt"
	"strings"
)

// Expr is an affine expression: a sum of integer-coefficient terms over named
// variables plus an integer constant. The zero value is the constant 0.
//
// The terms are a slice sorted by variable name (byte order) holding no zero
// coefficient, so every affine function has exactly one representation. An
// Expr is immutable once built: every operation returns a fresh term slice
// or shares an operand's unchanged one, never writing into an existing slice.
// Sharing terms between values (and between goroutines) is therefore safe.
type Expr struct {
	terms []term
	Const int64
}

type term struct {
	v string
	c int64
}

// NewExpr returns the affine expression with the given constant term.
func NewExpr(c int64) Expr { return Expr{Const: c} }

// Var returns the expression consisting of the single variable v.
func Var(v string) Expr { return Term(v, 1) }

// Term returns the expression c*v.
func Term(v string, c int64) Expr {
	if c == 0 {
		return Expr{}
	}
	return Expr{terms: []term{{v, c}}}
}

// Clone returns a copy of e. Exprs are immutable, so the copy shares e's
// terms; Clone exists for callers that want to say "an independent value".
func (e Expr) Clone() Expr { return e }

// CoefOf returns the coefficient of variable v (0 if absent).
func (e Expr) CoefOf(v string) int64 {
	lo, hi := 0, len(e.terms)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		switch tv := e.terms[m].v; {
		case tv == v:
			return e.terms[m].c
		case tv < v:
			lo = m + 1
		default:
			hi = m
		}
	}
	return 0
}

// Add returns e + o.
func (e Expr) Add(o Expr) Expr { return linComb(1, e, 1, o) }

// Sub returns e - o.
func (e Expr) Sub(o Expr) Expr { return linComb(1, e, -1, o) }

// Scale returns k*e.
func (e Expr) Scale(k int64) Expr {
	switch k {
	case 0:
		return Expr{}
	case 1:
		return e
	}
	out := Expr{Const: e.Const * k}
	if len(e.terms) > 0 {
		out.terms = make([]term, 0, len(e.terms))
		for _, t := range e.terms {
			out.terms = appendTerm(out.terms, t.v, t.c*k)
		}
	}
	return out
}

// AddConst returns e + k.
func (e Expr) AddConst(k int64) Expr { return Expr{terms: e.terms, Const: e.Const + k} }

// IsConst reports whether e has no variable terms.
func (e Expr) IsConst() bool { return len(e.terms) == 0 }

// Vars returns the variables of e in sorted order.
func (e Expr) Vars() []string {
	vs := make([]string, len(e.terms))
	for i, t := range e.terms {
		vs[i] = t.v
	}
	return vs
}

// Eval evaluates e under the given assignment. Unassigned variables are an
// error so callers never silently treat a symbolic value as zero.
func (e Expr) Eval(env map[string]int64) (int64, error) {
	sum := e.Const
	for _, t := range e.terms {
		val, ok := env[t.v]
		if !ok {
			return 0, fmt.Errorf("lin: unbound variable %q", t.v)
		}
		sum += t.c * val
	}
	return sum, nil
}

// Substitute returns e with every occurrence of v replaced by repl.
func (e Expr) Substitute(v string, repl Expr) Expr {
	c := e.CoefOf(v)
	if c == 0 {
		return e
	}
	return linComb(1, e, c, repl.Sub(Var(v))) // e + c*(repl - v)
}

// Rename returns e with variable old renamed to new.
func (e Expr) Rename(old, new string) Expr {
	c := e.CoefOf(old)
	if c == 0 || old == new {
		return e
	}
	return linComb(1, e, c, Var(new).Sub(Var(old)))
}

// Equal reports whether e and o denote the same affine function.
func (e Expr) Equal(o Expr) bool { return e.Const == o.Const && sameCoefs(e, o) }

// sameCoefs reports whether a and b have identical variable terms.
func sameCoefs(a, b Expr) bool {
	if len(a.terms) != len(b.terms) {
		return false
	}
	for i, t := range a.terms {
		if b.terms[i] != t {
			return false
		}
	}
	return true
}

// String renders e deterministically, e.g. "2*i - j + 3".
func (e Expr) String() string {
	var b strings.Builder
	for i, t := range e.terms {
		v, c := t.v, t.c
		first := i == 0
		switch {
		case first && c == 1:
			b.WriteString(v)
		case first && c == -1:
			b.WriteString("-" + v)
		case first:
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
	case len(e.terms) == 0:
		fmt.Fprintf(&b, "%d", e.Const)
	case e.Const > 0:
		fmt.Fprintf(&b, " + %d", e.Const)
	case e.Const < 0:
		fmt.Fprintf(&b, " - %d", -e.Const)
	}
	return b.String()
}

// linComb returns ka*a + kb*b as one sorted merge of the two term slices
// with a single allocation.
func linComb(ka int64, a Expr, kb int64, b Expr) Expr {
	out, _ := linCombInto(make([]term, 0, len(a.terms)+len(b.terms)), ka, a, kb, b)
	return out
}

// linCombInto is linComb with the merged terms appended to block, which is
// returned grown; the result's terms are capacity-capped so no append
// through it can reach the block's later entries. This is the inner-loop
// combination step of Fourier–Motzkin elimination, where the eliminated
// variable cancels.
func linCombInto(block []term, ka int64, a Expr, kb int64, b Expr) (Expr, []term) {
	start := len(block)
	ts := block
	i, j := 0, 0
	for i < len(a.terms) && j < len(b.terms) {
		ta, tb := a.terms[i], b.terms[j]
		switch {
		case ta.v < tb.v:
			ts = appendTerm(ts, ta.v, ka*ta.c)
			i++
		case ta.v > tb.v:
			ts = appendTerm(ts, tb.v, kb*tb.c)
			j++
		default:
			ts = appendTerm(ts, ta.v, ka*ta.c+kb*tb.c)
			i++
			j++
		}
	}
	for ; i < len(a.terms); i++ {
		ts = appendTerm(ts, a.terms[i].v, ka*a.terms[i].c)
	}
	for ; j < len(b.terms); j++ {
		ts = appendTerm(ts, b.terms[j].v, kb*b.terms[j].c)
	}
	out := Expr{Const: ka*a.Const + kb*b.Const}
	if len(ts) > start {
		out.terms = ts[start:len(ts):len(ts)]
	}
	return out, ts
}

func appendTerm(ts []term, v string, c int64) []term {
	if c == 0 {
		return ts
	}
	return append(ts, term{v, c})
}

func gcd64(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
