package nullness

import (
	"tracer/internal/client"
	"tracer/internal/formula"
)

// Spec is the null-dereference client: one non-nil query per application
// field access on its base pointer — the dereference points the escape
// client guards, asked the null-safety question instead. The analysis is
// query-independent, so one instance answers every goal.
var Spec = &client.Spec[State]{
	Prefix: "null",
	New: func(u *client.Universe, _ client.Goal) client.Analysis[State] {
		return New(u.Locals, u.Fields)
	},
	Goals: func(_ *client.Universe, o client.Occurrence) []client.Goal {
		if o.Call {
			return nil
		}
		return []client.Goal{{Subject: o.Var}}
	},
}

// Holds reports whether a single abstract state satisfies the goal: its
// subject v is definitely non-nil (safe to dereference).
func (a *Analysis) Holds(g client.Goal, d State) bool { return a.Local(d, g.Subject) == NN }

// NotQ returns the failure condition not(nonnil(v)) = v.NIL ∨ v.U.
func (a *Analysis) NotQ(g client.Goal) formula.Formula {
	return formula.Or(lv(g.Subject, Nil), lv(g.Subject, U))
}

// Theory implements client.Analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// Param maps track and coarse literals to their cell's parameter index; a
// track literal holds when the cell is in p, a coarse one when it is not.
func (a *Analysis) Param(l formula.Lit) (int, bool, bool) {
	switch pr := l.P.(type) {
	case PTrackVar:
		return a.localSlot(pr.V), pr.On, true
	case PTrackField:
		return a.fieldSlot(pr.F), pr.On, true
	}
	return 0, false, false
}
