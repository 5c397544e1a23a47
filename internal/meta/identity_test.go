package meta_test

import (
	"testing"

	"tracer/internal/bench"
	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/driver"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/nullness"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// backwardCall is one meta-analysis request of a solve.
type backwardCall struct {
	p uset.Set
	t lang.Trace
}

// tracedJob records the counterexample traces a solve hands to Backward.
type tracedJob[D comparable] struct {
	*client.Job[D]
	calls []backwardCall
}

func (j *tracedJob[D]) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	j.calls = append(j.calls, backwardCall{p, t})
	return j.Job.Backward(b, p, t)
}

// TestWPIdentityStructural pins the WP cache's identity flags to the rule
// they shortcut. For every query of every registry client on the tsp suite
// program it solves the query, then requires that every per-literal flag
// the job's cache recorded says identity exactly when ToDNF of the literal's
// wp is [[lid]], that exactly the non-identity flags have entries, and that
// RunAnnotated on each counterexample trace of the solve prints the same
// annotations from the job's warm cache as from a cold one.
func TestWPIdentityStructural(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a whole suite program")
	}
	b := bench.MustLoad(bench.Suite()[0]) // tsp
	for _, spec := range driver.Clients() {
		t.Run(spec.Name, func(t *testing.T) {
			var flags, identities, calls int
			for i := range spec.Queries(b.Prog) {
				var f, id, c int
				switch j := spec.Job(b.Prog, i, 5).(type) {
				case *client.Job[typestate.State]:
					f, id, c = checkIdentityFlags(t, j)
				case *client.Job[escape.State]:
					f, id, c = checkIdentityFlags(t, j)
				case *client.Job[nullness.State]:
					f, id, c = checkIdentityFlags(t, j)
				default:
					t.Fatalf("no identity check for job type %T", j)
				}
				flags, identities, calls = flags+f, identities+id, calls+c
			}
			if calls == 0 || identities == 0 || identities == flags {
				t.Fatalf("%d backward calls, %d flags, %d identities: nothing exercised both kinds", calls, flags, identities)
			}
			t.Logf("%d backward calls, %d flags, %d identities", calls, flags, identities)
		})
	}
}

func checkIdentityFlags[D comparable](t *testing.T, j *client.Job[D]) (flags, identities, calls int) {
	t.Helper()
	tj := &tracedJob[D]{Job: j}
	if _, err := core.Solve(tj, core.Options{MaxIters: 100}); err != nil {
		t.Fatal(err)
	}
	if len(tj.calls) == 0 {
		return 0, 0, 0
	}
	j.WPC.EachLitFlag(func(a lang.Atom, lid uint32, identity, hasEntry bool) {
		flags++
		l := j.Uni.Lit(lid)
		f := j.A.WP(a, l.P)
		if l.Neg {
			f = formula.Not(f)
		}
		d := formula.ToDNF(f, j.Uni)
		want := len(d) == 1 && len(d[0].IDs()) == 1 && d[0].IDs()[0] == lid
		if identity != want {
			t.Errorf("%s at %s: identity flag %v, but ToDNF(wp) = %s", l, a, identity, d)
		}
		if identity == hasEntry {
			t.Errorf("%s at %s: identity %v with entry present %v", l, a, identity, hasEntry)
		}
		if identity {
			identities++
		}
	})
	post := j.A.NotQ(j.Goal)
	for _, c := range tj.calls {
		states := dataflow.StatesAlong(c.t, j.A.Initial(), j.A.Transfer(c.p))
		warm := meta.RunAnnotated(j.Client(c.p), c.t, states, post)
		cold := j.Client(c.p)
		cold.Cache = meta.NewWPCache()
		fresh := meta.RunAnnotated(cold, c.t, states, post)
		for i := range warm {
			if w, f := warm[i].String(), fresh[i].String(); w != f {
				t.Fatalf("trace of %d atoms, point %d: warm cache %s, cold cache %s", len(c.t), i, w, f)
			}
		}
	}
	return flags, identities, len(tj.calls)
}
