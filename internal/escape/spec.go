package escape

import (
	"tracer/internal/client"
	"tracer/internal/formula"
)

// Spec is the thread-escape client: one local(v) query per application
// field access on its base pointer v, as §6 poses for the datarace client.
// The analysis is query-independent, so one instance answers every goal.
var Spec = &client.Spec[State]{
	Prefix: "esc",
	New: func(u *client.Universe, _ client.Goal) client.Analysis[State] {
		return New(u.Locals, u.Fields, u.Sites)
	},
	Goals: func(_ *client.Universe, o client.Occurrence) []client.Goal {
		if o.Call {
			return nil
		}
		return []client.Goal{{Subject: o.Var}}
	},
}

// Holds reports whether a single abstract state satisfies local(v) for the
// goal's subject v: v is thread-local (never E).
func (a *Analysis) Holds(g client.Goal, d State) bool { return a.Local(d, g.Subject) != E }

// NotQ returns the failure condition not(local(v)) = v.E.
func (a *Analysis) NotQ(g client.Goal) formula.Formula { return lv(g.Subject, E) }

// Theory implements client.Analysis.
func (a *Analysis) Theory() formula.Theory { return Theory{} }

// Param maps a site literal h.o to h's parameter index; h.L holds when h is
// in p, h.E when it is not.
func (a *Analysis) Param(l formula.Lit) (int, bool, bool) {
	if ps, ok := l.P.(PSite); ok {
		return a.Sites.ID(ps.H), ps.O == L, true
	}
	return 0, false, false
}

// NumParams returns the number of allocation sites (the family is 2^H).
func (a *Analysis) NumParams() int { return a.Sites.Len() }

// ParamName names parameter i (the site it maps to L when on).
func (a *Analysis) ParamName(i int) string { return a.Sites.Value(i) }
