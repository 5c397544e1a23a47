// Package typestate implements the parametric type-state analysis of §3.2
// (Fig 4) and its backward meta-analysis (Figs 9 and 10).
//
// The analysis tracks, for a single allocation site of interest, a pair
// (ts, vs) or ⊤, where ts over-approximates the possible type-states of an
// object created at that site and vs is a must-alias set of variables that
// definitely point to it. The abstraction parameter p ⊆ V chooses which
// variables may appear in must-alias sets; larger p is more precise and more
// expensive (the cost order compares |p|).
package typestate

import (
	"fmt"

	"tracer/internal/dataflow"
	"tracer/internal/intern"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// Top is the error abstract state ⊤: a type-state error has been detected.
// Non-⊤ states are (TS, VS) pairs; VS is an interned must-alias set.
type State struct {
	Top bool
	TS  uset.Bits // set of automaton state indices
	VS  int       // intern.Sets ID of the must-alias variable set
}

// Transition describes how a method call changes the type-state automaton.
type Transition struct {
	// Next[s] is the state reached from s, or Err for the error outcome ⊤.
	Next []int
	// OnlyWeak makes the transition apply only when the receiver is NOT in
	// the must-alias set. This models clients like the paper's fictitious
	// stress-test property (§6), where a precisely tracked receiver keeps
	// the object in its current state.
	OnlyWeak bool
}

// Err is the transition target denoting the type-state error ⊤.
const Err = -1

// Property is a type-state automaton: a finite set of states with an
// initial state and per-method transitions. Methods not in the map leave
// the type-state unchanged.
type Property struct {
	States  []string
	Init    int
	Methods map[string]Transition
}

// MustState panics unless s names an automaton state; it returns its index.
func (pr *Property) MustState(s string) int {
	for i, n := range pr.States {
		if n == s {
			return i
		}
	}
	panic(fmt.Sprintf("typestate: no automaton state %q", s))
}

// FileProperty returns the File automaton of the paper's §2 example:
// states closed/opened, open() and close() toggling, with errors on
// double-open and double-close.
func FileProperty() *Property {
	return &Property{
		States: []string{"closed", "opened"},
		Init:   0,
		Methods: map[string]Transition{
			"open":  {Next: []int{1, Err}},
			"close": {Next: []int{Err, 0}},
		},
	}
}

// SocketProperty returns a three-state connection protocol: a socket is
// created closed, must be bound before it is connected, and may only send
// while connected. Misordered calls are type-state errors.
func SocketProperty() *Property {
	const (
		closed = iota
		bound
		connected
	)
	return &Property{
		States: []string{"closed", "bound", "connected"},
		Init:   closed,
		Methods: map[string]Transition{
			"bind":    {Next: []int{bound, Err, Err}},
			"connect": {Next: []int{Err, connected, Err}},
			"send":    {Next: []int{Err, Err, connected}},
			"close":   {Next: []int{Err, closed, closed}},
		},
	}
}

// IteratorProperty returns the hasNext/next protocol: next() is only legal
// immediately after a hasNext() that has not been consumed.
func IteratorProperty() *Property {
	const (
		unknown = iota
		ready
	)
	return &Property{
		States: []string{"unknown", "ready"},
		Init:   unknown,
		Methods: map[string]Transition{
			"hasNext": {Next: []int{ready, ready}},
			"next":    {Next: []int{Err, unknown}},
		},
	}
}

// StressProperty returns the fictitious property used in the paper's
// evaluation (§6): two states init/error; any call of one of the given
// methods on an imprecisely tracked receiver moves the object to error.
func StressProperty(methods []string) *Property {
	pr := &Property{
		States:  []string{"init", "error"},
		Init:    0,
		Methods: make(map[string]Transition, len(methods)),
	}
	for _, m := range methods {
		pr.Methods[m] = Transition{Next: []int{1, 1}, OnlyWeak: true}
	}
	return pr
}

// Analysis is the parametric type-state analysis for one tracked allocation
// site in one program.
type Analysis struct {
	Prop *Property
	Site string // the tracked allocation site
	// Vars is the universe of pointer variables; indices into it are the
	// parameter indices of the abstraction family P = 2^V.
	Vars *intern.Strings
	// MayPoint reports whether a variable may point to an object allocated
	// at Site (the 0-CFA oracle of §6). nil means "always".
	MayPoint func(v string) bool

	vsets *intern.Sets
}

// New builds an analysis for the given property and tracked site over the
// variable universe vars.
func New(prop *Property, site string, vars []string) *Analysis {
	a := &Analysis{
		Prop:  prop,
		Site:  site,
		Vars:  intern.NewStrings(),
		vsets: intern.NewSets(),
	}
	for _, v := range vars {
		a.Vars.ID(v)
	}
	return a
}

// Initial returns the initial abstract state dI = ({init}, ∅).
func (a *Analysis) Initial() State {
	return State{TS: uset.Bits(0).Add(a.Prop.Init), VS: a.vsets.ID(nil)}
}

// MkState builds the abstract state (ts, vs); vs holds variable indices.
// It is intended for tests and clients that enumerate the state space.
func (a *Analysis) MkState(ts uset.Bits, vs uset.Set) State {
	return State{TS: ts, VS: a.vsets.ID(vs)}
}

// TopState returns ⊤.
func TopState() State { return State{Top: true} }

// AllStates enumerates the full abstract domain D over the analysis's
// variable universe: every (ts, vs) pair plus ⊤. It is exponential and
// meant for exhaustive soundness tests on small universes.
func (a *Analysis) AllStates() []State {
	nv := a.Vars.Len()
	ns := len(a.Prop.States)
	var out []State
	for ts := 0; ts < 1<<ns; ts++ {
		for vsBits := 0; vsBits < 1<<nv; vsBits++ {
			var vs uset.Set
			for v := 0; v < nv; v++ {
				if vsBits&(1<<v) != 0 {
					vs = vs.Add(v)
				}
			}
			out = append(out, a.MkState(uset.Bits(ts), vs))
		}
	}
	return append(out, TopState())
}

// AllAbstractions enumerates the abstraction family 2^V. Exponential; for
// tests on small universes.
func (a *Analysis) AllAbstractions() []uset.Set {
	nv := a.Vars.Len()
	out := make([]uset.Set, 0, 1<<nv)
	for bits := 0; bits < 1<<nv; bits++ {
		var p uset.Set
		for v := 0; v < nv; v++ {
			if bits&(1<<v) != 0 {
				p = p.Add(v)
			}
		}
		out = append(out, p)
	}
	return out
}

// MustAlias returns the must-alias set of a non-⊤ state.
func (a *Analysis) MustAlias(d State) uset.Set { return a.vsets.Value(d.VS) }

// Format renders a state like the α annotations of Fig 1.
func (a *Analysis) Format(d State) string {
	if d.Top {
		return "⊤"
	}
	names := []string{}
	for _, s := range d.TS.Elems() {
		names = append(names, a.Prop.States[s])
	}
	vs := []string{}
	for _, v := range a.MustAlias(d).Elems() {
		vs = append(vs, a.Vars.Value(v))
	}
	return fmt.Sprintf("({%s}, {%s})", join(names), join(vs))
}

func join(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += ","
		}
		out += s
	}
	return out
}

// varID returns the parameter index of a variable name, interning unseen
// names so that programs may mention variables outside the initial universe.
func (a *Analysis) varID(v string) int { return a.Vars.ID(v) }

// mayPoint consults the may-alias oracle.
func (a *Analysis) mayPoint(v string) bool {
	if a.MayPoint == nil {
		return true
	}
	return a.MayPoint(v)
}

// Transfer instantiates the transfer function [a]p of Fig 4 at abstraction
// p (a set of variable indices allowed in must-alias sets).
func (a *Analysis) Transfer(p uset.Set) dataflow.Transfer[State] {
	return func(at lang.Atom, d State) State {
		return a.step(p, at, d)
	}
}

// TransferDep is Transfer with dependency reporting for the incremental
// solver (dataflow.Chain): each application also returns the dependency
// literal naming the parameter it consulted. The type-state transfer reads
// the abstraction in exactly two places, both guarded: Alloc consults
// p.Has(x) only when the allocation is at the tracked site, and Move
// consults p.Has(dst) only when the source is in the must-alias set. Every
// other case — including Invoke, which reads the automaton, the may-point
// oracle, and the must-alias set but never p — is abstraction-independent.
func (a *Analysis) TransferDep(p uset.Set) dataflow.DepTransfer[State] {
	return func(at lang.Atom, d State) (State, int32) {
		lit := int32(0)
		if !d.Top {
			switch at := at.(type) {
			case lang.Alloc:
				if at.H == a.Site {
					lit = dataflow.DepLit(p, a.varID(at.V))
				}
			case lang.Move:
				if a.vsets.Value(d.VS).Has(a.varID(at.Src)) {
					lit = dataflow.DepLit(p, a.varID(at.Dst))
				}
			}
		}
		return a.step(p, at, d), lit
	}
}

func (a *Analysis) step(p uset.Set, at lang.Atom, d State) State {
	if d.Top {
		return d
	}
	vs := a.vsets.Value(d.VS)
	setVS := func(nvs uset.Set) State {
		return State{TS: d.TS, VS: a.vsets.ID(nvs)}
	}
	switch at := at.(type) {
	case lang.Alloc:
		x := a.varID(at.V)
		nvs := vs.Remove(x)
		if at.H == a.Site && p.Has(x) {
			nvs = nvs.Add(x)
		}
		return setVS(nvs)
	case lang.Move:
		x, y := a.varID(at.Dst), a.varID(at.Src)
		if vs.Has(y) && p.Has(x) {
			return setVS(vs.Add(x))
		}
		return setVS(vs.Remove(x))
	case lang.MoveNull:
		return setVS(vs.Remove(a.varID(at.V)))
	case lang.GlobalRead:
		return setVS(vs.Remove(a.varID(at.V)))
	case lang.Load:
		return setVS(vs.Remove(a.varID(at.Dst)))
	case lang.GlobalWrite, lang.Store:
		return d
	case lang.Invoke:
		tr, ok := a.Prop.Methods[at.M]
		if !ok || !a.mayPoint(at.V) {
			return d
		}
		x := a.varID(at.V)
		must := vs.Has(x)
		if tr.OnlyWeak && must {
			return d
		}
		next := uset.Bits(0)
		for _, s := range d.TS.Elems() {
			n := tr.Next[s]
			if n == Err {
				return State{Top: true}
			}
			next = next.Add(n)
		}
		if must {
			return State{TS: next, VS: d.VS}
		}
		return State{TS: d.TS.Union(next), VS: d.VS}
	}
	return d
}
