package typestate

import (
	"fmt"
	"hash/fnv"
	"strings"

	"tracer/internal/client"
	"tracer/internal/formula"
	"tracer/internal/uset"
)

// Spec is the type-state client of the evaluation (§6): the stress property
// over the program's called application methods, one query per (application
// call site, application site the receiver may point to).
var Spec = NewSpec(nil)

// NewSpec returns the type-state client for property prop, or for the
// program's stress property when prop is nil. A goal's subject is the
// tracked allocation site, which is also its analysis-sharing key: the
// analysis tracks one site, so only same-site goals share forward runs.
func NewSpec(prop *Property) *client.Spec[State] {
	init := StressProperty(nil).Init
	if prop != nil {
		init = prop.Init
	}
	return &client.Spec[State]{
		Prefix: "ts",
		New: func(u *client.Universe, g client.Goal) client.Analysis[State] {
			pr := prop
			if pr == nil {
				pr = StressProperty(u.Methods)
			}
			a := New(pr, g.Subject, u.Locals)
			if u.MayPoint != nil {
				a.MayPoint = u.MayPoint(g.Subject)
			}
			return a
		},
		Goals: func(u *client.Universe, o client.Occurrence) []client.Goal {
			if !o.Call {
				return nil
			}
			var out []client.Goal
			for _, h := range u.AppSites(o.Var) {
				out = append(out, client.Goal{Subject: h, Want: uset.Bits(0).Add(init)})
			}
			return out
		},
		Share: func(g client.Goal) string { return g.Subject },
		// The stress property's method list is whole-program state: an edit
		// that introduces a new called method name changes the meaning of
		// every stored entry.
		ConfExtra: func(u *client.Universe) string {
			h := fnv.New32a()
			h.Write([]byte(strings.Join(u.Methods, ",")))
			return fmt.Sprintf("|stress=%08x", h.Sum32())
		},
	}
}

// Holds reports whether a single abstract state satisfies goal g: the
// tracked object's type-state is within g.Want and no error ⊤ has occurred.
// This subsumes both the File example's check(x, σ) queries and the
// evaluation's stress queries (Want = {init}).
func (a *Analysis) Holds(g client.Goal, d State) bool {
	if d.Top {
		return false
	}
	return d.TS.Intersect(^g.Want) == 0
}

// Theory implements client.Analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// Param maps param(x) literals to x's parameter index.
func (a *Analysis) Param(l formula.Lit) (int, bool, bool) {
	if pp, ok := l.P.(PParam); ok {
		return a.varID(pp.X), true, true
	}
	return 0, false, false
}

// NumParams returns the number of variables in the abstraction family 2^V.
func (a *Analysis) NumParams() int { return a.Vars.Len() }

// ParamName names parameter i (the variable it tracks).
func (a *Analysis) ParamName(i int) string { return a.Vars.Value(i) }
