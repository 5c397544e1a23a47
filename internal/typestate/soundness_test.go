package typestate

import (
	"math/rand"
	"sort"
	"testing"

	"tracer/internal/client"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/oracle/gen"
	"tracer/internal/uset"
)

// testAtoms returns the full atom pool over the universe {x, y}, site h
// (tracked) and g (untracked), field f, global G, and every property
// method. The pool is the oracle generator's cross product (see
// internal/oracle/gen), so these exhaustive suites and the fuzzing harness
// exercise the same command vocabulary.
func testAtoms(prop *Property) []lang.Atom {
	methods := make([]string, 0, len(prop.Methods))
	for m := range prop.Methods {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	return gen.Pool(gen.Universe{
		Vars:    []string{"x", "y"},
		Sites:   []string{"h", "g"},
		Fields:  []string{"f"},
		Globals: []string{"G"},
		Methods: methods,
	})
}

// primsFor returns every primitive over the test universe.
func primsFor(a *Analysis) []formula.Prim {
	prims := []formula.Prim{PErr{}}
	for i := 0; i < a.Vars.Len(); i++ {
		v := a.Vars.Value(i)
		prims = append(prims, PParam{v}, PVar{v})
	}
	for s, name := range a.Prop.States {
		prims = append(prims, PType{S: s, Name: name})
	}
	return prims
}

// newTestAnalysis builds an analysis over {x, y} for the given property.
func newTestAnalysis(prop *Property) *Analysis {
	return New(prop, "h", []string{"x", "y"})
}

// TestWPRequirement2 exhaustively verifies requirement (2) of §4 for every
// (atom, primitive) pair over the full universe of abstractions and states:
// the backward transfer function must compute exactly the weakest
// precondition of the forward transfer function.
func TestWPRequirement2(t *testing.T) {
	for _, tc := range []struct {
		name string
		prop *Property
	}{
		{"file", FileProperty()},
		{"stress", StressProperty([]string{"m"})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestAnalysis(tc.prop)
			u := formula.NewUniverse(Theory{})
			abstractions := a.AllAbstractions()
			states := a.AllStates()
			for _, atom := range testAtoms(tc.prop) {
				for _, prim := range primsFor(a) {
					bad := meta.CheckWP(
						atom, prim, a.WP, u,
						abstractions, states,
						func(p uset.Set, d State) State { return a.step(p, atom, d) },
						func(l formula.Lit, p uset.Set, d State) bool { return a.EvalLit(l, p, d) },
					)
					if len(bad) != 0 {
						pi, di := bad[0][0], bad[0][1]
						t.Errorf("[%s]♭(%s) wrong at p=%v d=%s (%d violations)",
							atom, prim, abstractions[pi], a.Format(states[di]), len(bad))
					}
				}
			}
		})
	}
}

// TestWPRequirement2WithMayAlias repeats the exhaustive check with a
// non-trivial may-alias oracle (y never points to the tracked site), since
// the oracle gates which calls drive the automaton.
func TestWPRequirement2WithMayAlias(t *testing.T) {
	a := newTestAnalysis(FileProperty())
	a.MayPoint = func(v string) bool { return v != "y" }
	u := formula.NewUniverse(Theory{})
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	for _, atom := range []lang.Atom{
		lang.Invoke{V: "x", M: "open"},
		lang.Invoke{V: "y", M: "open"},
		lang.Invoke{V: "y", M: "close"},
	} {
		for _, prim := range primsFor(a) {
			bad := meta.CheckWP(
				atom, prim, a.WP, u,
				abstractions, states,
				func(p uset.Set, d State) State { return a.step(p, atom, d) },
				func(l formula.Lit, p uset.Set, d State) bool { return a.EvalLit(l, p, d) },
			)
			if len(bad) != 0 {
				t.Errorf("[%s]♭(%s): %d violations", atom, prim, len(bad))
			}
		}
	}
}

// TestTheorem3RandomTraces checks both clauses of Theorem 3 on random
// traces: clause 1 (the analyzed (p, dI) stays in the computed condition
// when the run fails) and clause 2 (every pair in the condition leads to
// failure).
func TestTheorem3RandomTraces(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, prop := range []*Property{FileProperty(), StressProperty([]string{"m"})} {
		a := newTestAnalysis(prop)
		atoms := testAtoms(prop)
		abstractions := a.AllAbstractions()
		states := a.AllStates()
		q := client.Goal{Want: uset.Bits(0).Add(prop.Init)}
		post := a.NotQ(q)
		for trial := 0; trial < 60; trial++ {
			n := 1 + rng.Intn(6)
			tr := make(lang.Trace, n)
			for i := range tr {
				tr[i] = atoms[rng.Intn(len(atoms))]
			}
			p := abstractions[rng.Intn(len(abstractions))]
			dI := a.Initial()
			selfTr := a.Transfer(p)
			final := dataflow.EvalTrace(tr, dI, selfTr)
			failed := post.Eval(func(l formula.Lit) bool { return a.EvalLit(l, p, final) })
			for _, k := range []int{1, 2, 0} {
				client := &meta.Client[State]{
					WP:   a.WP,
					U:    formula.NewUniverse(Theory{}),
					Eval: func(l formula.Lit, d State) bool { return a.EvalLit(l, p, d) },
					K:    k,
				}
				c1, c2 := meta.CheckSoundness(
					client, tr, dI, post, failed,
					abstractions, states,
					func(p0 uset.Set) dataflow.Transfer[State] { return a.Transfer(p0) },
					func(p0 uset.Set) func(l formula.Lit, d State) bool {
						return func(l formula.Lit, d State) bool { return a.EvalLit(l, p0, d) }
					},
					selfTr,
				)
				if c1 != 0 {
					t.Fatalf("k=%d trace %q p=%v: clause 1 violated", k, tr, p)
				}
				if c2 != 0 {
					t.Fatalf("k=%d trace %q p=%v: clause 2 violated %d times", k, tr, p, c2)
				}
			}
		}
	}
}

// TestTransferInvariant checks that transfer functions keep must-alias sets
// within the abstraction (vs ⊆ p) when started from conforming states.
func TestTransferInvariant(t *testing.T) {
	a := newTestAnalysis(FileProperty())
	rng := rand.New(rand.NewSource(3))
	atoms := testAtoms(FileProperty())
	for _, p := range a.AllAbstractions() {
		d := a.Initial()
		tr := a.Transfer(p)
		for i := 0; i < 100; i++ {
			d = tr(atoms[rng.Intn(len(atoms))], d)
			if d.Top {
				break
			}
			if !a.MustAlias(d).SubsetOf(p) {
				t.Fatalf("vs=%v ⊄ p=%v", a.MustAlias(d), p)
			}
		}
	}
}
