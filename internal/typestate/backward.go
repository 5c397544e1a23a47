package typestate

import (
	"fmt"

	"tracer/internal/client"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// The primitive formulas of the type-state meta-analysis (Fig 9):
//
//	err       — the abstract state is ⊤
//	param(x)  — the abstraction p contains variable x
//	var(x)    — the state is (ts, vs) and x ∈ vs
//	type(σ)   — the state is (ts, vs) and σ ∈ ts
//
// δ(param(x)) constrains only the abstraction (it includes ⊤ states);
// var and type implicitly exclude ⊤.

// PErr is the primitive err.
type PErr struct{}

// PParam is the primitive param(x).
type PParam struct{ X string }

// PVar is the primitive var(x).
type PVar struct{ X string }

// PType is the primitive type(σ); S is an automaton state index and Name its
// printable name.
type PType struct {
	S    int
	Name string
}

func (PErr) Key() string     { return "err" }
func (p PParam) Key() string { return "p:" + p.X }
func (p PVar) Key() string   { return "v:" + p.X }
func (p PType) Key() string  { return "t:" + itoa(p.S) }

// itoa is a tiny strconv.Itoa for small non-negative state indices; it
// avoids pulling fmt into the literal-key hot path.
func itoa(v int) string {
	if v < 10 {
		return string([]byte{byte('0' + v)})
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
func (PErr) String() string     { return "err" }
func (p PParam) String() string { return p.X + "∈p" }
func (p PVar) String() string   { return p.X + "∈vs" }
func (p PType) String() string  { return p.Name + "∈ts" }

// Theory is the literal theory of the type-state meta-analysis. Negation
// keeps signed literals (Fig 9's formulas use ¬var, ¬type, ¬param directly).
type Theory struct{}

// NegLit keeps signed literals: there is no positive expansion of negation
// in this theory.
func (Theory) NegLit(l formula.Lit) ([]formula.Lit, bool) { return nil, false }

// Implies implements the fast entailment of Fig 9: identical literals,
// positive var/type literals entail ¬err, and err entails ¬var/¬type.
func (Theory) Implies(a, b formula.Lit) bool {
	if a == b {
		return true
	}
	if b.Neg {
		if _, ok := b.P.(PErr); ok && !a.Neg {
			switch a.P.(type) {
			case PVar, PType:
				return true
			}
		}
		if _, ok := a.P.(PErr); ok && !a.Neg {
			switch b.P.(type) {
			case PVar, PType:
				return true
			}
		}
	}
	return false
}

// Contradicts reports mutual exclusion: err conflicts with any positive
// var/type literal.
func (Theory) Contradicts(a, b formula.Lit) bool {
	if a.Neg || b.Neg {
		return false
	}
	if _, ok := a.P.(PErr); ok {
		switch b.P.(type) {
		case PVar, PType:
			return true
		}
	}
	return false
}

// EvalLit evaluates a literal at abstraction p and state d.
func (a *Analysis) EvalLit(l formula.Lit, p uset.Set, d State) bool {
	v := a.evalPrim(l.P, p, d)
	if l.Neg {
		return !v
	}
	return v
}

func (a *Analysis) evalPrim(pr formula.Prim, p uset.Set, d State) bool {
	switch pr := pr.(type) {
	case PErr:
		return d.Top
	case PParam:
		return p.Has(a.varID(pr.X))
	case PVar:
		return !d.Top && a.vsets.Value(d.VS).Has(a.varID(pr.X))
	case PType:
		return !d.Top && d.TS.Has(pr.S)
	}
	panic(fmt.Sprintf("typestate: unknown primitive %T", pr))
}

// typeLit builds the literal type(σ).
func (a *Analysis) typeLit(s int) formula.Formula {
	return formula.L(PType{S: s, Name: a.Prop.States[s]})
}

// WP returns the weakest precondition [at]♭(π) of a positive primitive π
// with respect to atomic command at (Fig 10, extended to the full atom set
// and to OnlyWeak transitions). Soundness — requirement (2) of §4 — is
// verified exhaustively in the tests.
func (a *Analysis) WP(at lang.Atom, prim formula.Prim) formula.Formula {
	switch pr := prim.(type) {
	case PParam:
		return formula.L(pr) // abstractions are not changed by execution
	case PErr:
		return a.wpErr(at)
	case PVar:
		return a.wpVar(at, pr)
	case PType:
		return a.wpType(at, pr)
	}
	panic(fmt.Sprintf("typestate: unknown primitive %T", prim))
}

// invokeInfo resolves whether an Invoke atom drives the automaton; it
// returns the transition and true only when the call can affect the tracked
// object.
func (a *Analysis) invokeInfo(at lang.Atom) (lang.Invoke, Transition, bool) {
	iv, ok := at.(lang.Invoke)
	if !ok {
		return lang.Invoke{}, Transition{}, false
	}
	tr, ok := a.Prop.Methods[iv.M]
	if !ok || !a.mayPoint(iv.V) {
		return lang.Invoke{}, Transition{}, false
	}
	return iv, tr, true
}

// topSources returns the automaton states s with Next[s] = ⊤.
func topSources(tr Transition) []int {
	var out []int
	for s, n := range tr.Next {
		if n == Err {
			out = append(out, s)
		}
	}
	return out
}

// wpErr computes [at]♭(err).
func (a *Analysis) wpErr(at lang.Atom) formula.Formula {
	err := formula.L(PErr{})
	iv, tr, drives := a.invokeInfo(at)
	if !drives {
		return err
	}
	var tops []formula.Formula
	for _, s := range topSources(tr) {
		tops = append(tops, a.typeLit(s))
	}
	if len(tops) == 0 {
		return err
	}
	cause := formula.Or(tops...)
	if tr.OnlyWeak {
		// The call errs only along the weak branch (receiver untracked).
		cause = formula.And(formula.NegL(PVar{iv.V}), cause)
	}
	return formula.Or(err, cause)
}

// wpVar computes [at]♭(var(z)).
func (a *Analysis) wpVar(at lang.Atom, pr PVar) formula.Formula {
	self := formula.L(pr)
	switch at := at.(type) {
	case lang.Alloc:
		if at.V != pr.X {
			return self
		}
		if at.H != a.Site {
			return formula.False()
		}
		// x joins vs exactly when tracked: param(x), on non-⊤ states.
		return formula.And(formula.L(PParam{pr.X}), formula.NegL(PErr{}))
	case lang.Move:
		if at.Dst != pr.X {
			return self
		}
		return formula.And(formula.L(PParam{pr.X}), formula.L(PVar{at.Src}))
	case lang.MoveNull:
		if at.V == pr.X {
			return formula.False()
		}
		return self
	case lang.GlobalRead:
		if at.V == pr.X {
			return formula.False()
		}
		return self
	case lang.Load:
		if at.Dst == pr.X {
			return formula.False()
		}
		return self
	case lang.GlobalWrite, lang.Store:
		return self
	case lang.Invoke:
		iv, tr, drives := a.invokeInfo(at)
		if !drives {
			return self
		}
		var noTop []formula.Formula
		for _, s := range topSources(tr) {
			noTop = append(noTop, formula.NegL(PType{S: s, Name: a.Prop.States[s]}))
		}
		safe := formula.And(noTop...)
		if tr.OnlyWeak {
			// Post-state is non-⊤ iff the receiver was tracked or no
			// current state transitions to ⊤.
			return formula.And(self, formula.Or(formula.L(PVar{iv.V}), safe))
		}
		return formula.And(self, safe)
	}
	return self
}

// wpType computes [at]♭(type(σ)).
func (a *Analysis) wpType(at lang.Atom, pr PType) formula.Formula {
	self := formula.L(pr)
	iv, tr, drives := a.invokeInfo(at)
	if !drives {
		return self // ts is unchanged by every non-driving atom
	}
	var noTop []formula.Formula
	for _, s := range topSources(tr) {
		noTop = append(noTop, formula.NegL(PType{S: s, Name: a.Prop.States[s]}))
	}
	safe := formula.And(noTop...)
	var sources []formula.Formula
	for s, n := range tr.Next {
		if n == pr.S {
			sources = append(sources, a.typeLit(s))
		}
	}
	from := formula.Or(sources...)
	if tr.OnlyWeak {
		// Tracked receiver: identity. Untracked: weak update with no ⊤.
		return formula.Or(
			formula.And(formula.L(PVar{iv.V}), self),
			formula.And(formula.NegL(PVar{iv.V}), safe, formula.Or(self, from)),
		)
	}
	// Fig 10: ¬err ∧ ⋀{¬type(s)|[m](s)=⊤} ∧ ((¬var(x) ∧ type(σ)) ∨ ⋁{type(s')|[m](s')=σ}).
	return formula.And(
		formula.NegL(PErr{}),
		safe,
		formula.Or(formula.And(formula.NegL(PVar{iv.V}), self), from),
	)
}

// NotQ returns the failure condition not(q) for a goal: err ∨ ⋁{type(σ) |
// σ ∉ Want}.
func (a *Analysis) NotQ(q client.Goal) formula.Formula {
	out := []formula.Formula{formula.L(PErr{})}
	for s := range a.Prop.States {
		if !q.Want.Has(s) {
			out = append(out, a.typeLit(s))
		}
	}
	return formula.Or(out...)
}
