package typestate

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// TestSocketProtocolEndToEnd runs TRACER on a socket protocol scenario:
// the socket flows through an alias before each call, so the proof must
// track the whole alias set; a second query after a stray send is
// impossible.
func TestSocketProtocolEndToEnd(t *testing.T) {
	// s = new Socket; a = s; s.bind(); b = a; b.connect(); a.send();
	prog := lang.Atoms(
		lang.Alloc{V: "s", H: "h"},
		lang.Move{Dst: "a", Src: "s"},
		lang.Invoke{V: "s", M: "bind"},
		lang.Move{Dst: "b", Src: "a"},
		lang.Invoke{V: "b", M: "connect"},
		lang.Invoke{V: "a", M: "send"},
	)
	g := lang.BuildCFG(prog)
	vars, _, _ := lang.Names(g)
	a := New(SocketProperty(), "h", vars)
	want := uset.Bits(0).Add(a.Prop.MustState("connected"))
	job := client.NewJob[State](a, client.Goal{Want: want}, g, []int{g.Exit}, 5)
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("status = %v after %d iterations", res.Status, res.Iterations)
	}
	// All three aliases participate in events; tracking all of them is the
	// cheapest proof.
	if res.Abstraction.Len() != 3 {
		names := []string{}
		for _, v := range res.Abstraction.Elems() {
			names = append(names, a.Vars.Value(v))
		}
		t.Fatalf("cheapest abstraction = %v (|p|=%d), want all three aliases", names, res.Abstraction.Len())
	}
}

// TestSocketMisuseImpossible: send before connect cannot be proven safe by
// any abstraction (it is genuinely an error).
func TestSocketMisuseImpossible(t *testing.T) {
	prog := lang.Atoms(
		lang.Alloc{V: "s", H: "h"},
		lang.Invoke{V: "s", M: "bind"},
		lang.Invoke{V: "s", M: "send"}, // protocol violation
	)
	g := lang.BuildCFG(prog)
	vars, _, _ := lang.Names(g)
	a := New(SocketProperty(), "h", vars)
	want := uset.Bits(0).Add(a.Prop.MustState("connected"))
	job := client.NewJob[State](a, client.Goal{Want: want}, g, []int{g.Exit}, 5)
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Impossible {
		t.Fatalf("status = %v, want impossible", res.Status)
	}
}

// TestIteratorProtocol: a well-guarded next() is provable; a double next()
// is impossible.
func TestIteratorProtocol(t *testing.T) {
	a := New(IteratorProperty(), "h", []string{"it", "jt"})
	want := uset.Bits(0).Add(a.Prop.MustState("unknown")).Add(a.Prop.MustState("ready"))

	good := lang.BuildCFG(lang.Atoms(
		lang.Alloc{V: "it", H: "h"},
		lang.Invoke{V: "it", M: "hasNext"},
		lang.Invoke{V: "it", M: "next"},
	))
	res, err := core.Solve(client.NewJob[State](a, client.Goal{Want: want}, good, []int{good.Exit}, 5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("guarded next: %v", res.Status)
	}

	a2 := New(IteratorProperty(), "h", []string{"it", "jt"})
	bad := lang.BuildCFG(lang.Atoms(
		lang.Alloc{V: "it", H: "h"},
		lang.Invoke{V: "it", M: "hasNext"},
		lang.Invoke{V: "it", M: "next"},
		lang.Invoke{V: "it", M: "next"}, // unguarded second next
	))
	res, err = core.Solve(client.NewJob[State](a2, client.Goal{Want: want}, bad, []int{bad.Exit}, 5), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Impossible {
		t.Fatalf("double next: %v, want impossible", res.Status)
	}
}

// TestSocketWPSoundness extends the exhaustive requirement-(2) check to the
// three-state socket property, exercising multi-state ⊤ transitions in the
// backward transfer functions.
func TestSocketWPSoundness(t *testing.T) {
	prop := SocketProperty()
	a := newTestAnalysis(prop)
	u := formula.NewUniverse(Theory{})
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	for _, atom := range testAtoms(prop) {
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
