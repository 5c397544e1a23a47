package typestate

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/uset"
)

// figure1 builds the example program of Fig 1(a):
//
//	x = new File; y = x; if (*) z = x; x.open(); y.close(); check(x, σ)
//
// and returns the analysis plus the CFG (the query node is the exit).
func figure1(t *testing.T) (*Analysis, *lang.CFG) {
	t.Helper()
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.If(lang.Atoms(lang.Move{Dst: "z", Src: "x"})),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	vars, _, _ := lang.Names(g)
	a := New(FileProperty(), "h", vars)
	return a, g
}

func (a *Analysis) wantStates(names ...string) uset.Bits {
	var b uset.Bits
	for _, n := range names {
		b = b.Add(a.Prop.MustState(n))
	}
	return b
}

// TestFigure1Check1 reproduces the check1 query: provable, with unique
// cheapest abstraction {x, y}, in three iterations.
func TestFigure1Check1(t *testing.T) {
	a, g := figure1(t)
	job := client.NewJob[State](a, client.Goal{Want: a.wantStates("closed")}, g, []int{g.Exit}, 1)
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("status = %v, want proved", res.Status)
	}
	got := map[string]bool{}
	for _, v := range res.Abstraction.Elems() {
		got[a.Vars.Value(v)] = true
	}
	if len(got) != 2 || !got["x"] || !got["y"] {
		t.Fatalf("cheapest abstraction = %v, want {x, y}", got)
	}
	if res.Iterations != 3 {
		t.Errorf("iterations = %d, want 3 (p={}, p={x}, p={x,y})", res.Iterations)
	}
}

// TestFigure1Check2 reproduces the check2 query: impossible for every
// abstraction, discovered in two iterations.
func TestFigure1Check2(t *testing.T) {
	a, g := figure1(t)
	job := client.NewJob[State](a, client.Goal{Want: a.wantStates("opened")}, g, []int{g.Exit}, 1)
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Impossible {
		t.Fatalf("status = %v, want impossible", res.Status)
	}
	if res.Iterations != 2 {
		t.Errorf("iterations = %d, want 2", res.Iterations)
	}
}

// TestFigure1Iteration1Formulas replays the meta-analysis of Fig 1(c):
// running with p = {} must yield the start condition
// closed∈ts ∧ opened∉ts ∧ x∉p.
func TestFigure1Iteration1Formulas(t *testing.T) {
	a, g := figure1(t)
	q := client.Goal{Want: a.wantStates("closed")}
	job := client.NewJob[State](a, q, g, []int{g.Exit}, 1)
	out := job.Forward(nil, nil)
	if out.Proved {
		t.Fatal("p = {} must fail to prove check1")
	}
	dI := a.Initial()
	states := dataflow.StatesAlong(out.Trace, dI, a.Transfer(nil))
	final := states[len(states)-1]
	if !final.Top {
		t.Fatalf("final state = %s, want ⊤", a.Format(final))
	}
	ann := meta.RunAnnotated(job.Client(nil), out.Trace, states, a.NotQ(q))
	start := ann[0]
	if len(start) != 1 {
		t.Fatalf("start formula = %v, want a single disjunct", start)
	}
	wantLits := map[string]bool{"t:0": false, "!t:1": false, "!p:x": false}
	for _, l := range start[0].Lits() {
		if _, ok := wantLits[l.Key()]; !ok {
			t.Fatalf("unexpected literal %s in %v", l, start)
		}
		wantLits[l.Key()] = true
	}
	for k, seen := range wantLits {
		if !seen {
			t.Errorf("missing literal %s in %v", k, start)
		}
	}
	// The derived cube must eliminate exactly the abstractions without x.
	cubes := job.Cubes(start, dI)
	if len(cubes) != 1 {
		t.Fatalf("cubes = %v, want 1", cubes)
	}
	x, _ := a.Vars.Lookup("x")
	if !cubes[0].Pos.Empty() || !cubes[0].Neg.Equal(uset.New(x)) {
		t.Fatalf("cube = %v, want off{x}", cubes[0])
	}
}

// TestFigure1Iteration2Formulas replays Fig 1(d): with p = {x} the start
// condition is closed∈ts ∧ opened∉ts ∧ y∉p ∧ x∈p.
func TestFigure1Iteration2Formulas(t *testing.T) {
	a, g := figure1(t)
	q := client.Goal{Want: a.wantStates("closed")}
	job := client.NewJob[State](a, q, g, []int{g.Exit}, 1)
	x, _ := a.Vars.Lookup("x")
	p := uset.New(x)
	out := job.Forward(nil, p)
	if out.Proved {
		t.Fatal("p = {x} must fail to prove check1")
	}
	cubes := job.Backward(nil, p, out.Trace)
	if len(cubes) != 1 {
		t.Fatalf("cubes = %v, want 1", cubes)
	}
	y, _ := a.Vars.Lookup("y")
	if !cubes[0].Pos.Equal(uset.New(x)) || !cubes[0].Neg.Equal(uset.New(y)) {
		t.Fatalf("cube = %v, want on{x} off{y}", cubes[0])
	}
}

// TestFigure1ForwardStates checks the α annotations of Fig 1(c) and (d).
func TestFigure1ForwardStates(t *testing.T) {
	a, g := figure1(t)
	q := client.Goal{Want: a.wantStates("closed")}
	job := client.NewJob[State](a, q, g, []int{g.Exit}, 1)

	// Iteration 1, p = {}: weak updates everywhere, ending in ⊤.
	out := job.Forward(nil, nil)
	states := dataflow.StatesAlong(out.Trace, a.Initial(), a.Transfer(nil))
	if got := a.Format(states[0]); got != "({closed}, {})" {
		t.Errorf("dI = %s", got)
	}
	if got := a.Format(states[len(states)-1]); got != "⊤" {
		t.Errorf("final = %s", got)
	}
	sawWeakOpen := false
	for i, at := range out.Trace {
		if iv, ok := at.(lang.Invoke); ok && iv.M == "open" {
			if got := a.Format(states[i+1]); got != "({closed,opened}, {})" {
				t.Errorf("state after x.open() = %s, want ({closed,opened}, {})", got)
			}
			sawWeakOpen = true
		}
	}
	if !sawWeakOpen {
		t.Error("trace lacks x.open()")
	}

	// Iteration 2, p = {x}: strong update at x.open().
	x, _ := a.Vars.Lookup("x")
	p := uset.New(x)
	out = job.Forward(nil, p)
	states = dataflow.StatesAlong(out.Trace, a.Initial(), a.Transfer(p))
	for i, at := range out.Trace {
		if iv, ok := at.(lang.Invoke); ok && iv.M == "open" {
			if got := a.Format(states[i+1]); got != "({opened}, {x})" {
				t.Errorf("state after x.open() = %s, want ({opened}, {x})", got)
			}
		}
	}
}

// TestIrrelevantVariableNotTracked: the z = x statement (Fig 1(a)) must not
// drag z into any abstraction TRACER tries.
func TestIrrelevantVariableNotTracked(t *testing.T) {
	a, g := figure1(t)
	job := client.NewJob[State](a, client.Goal{Want: a.wantStates("closed")}, g, []int{g.Exit}, 1)
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	z, ok := a.Vars.Lookup("z")
	if !ok {
		t.Fatal("z missing from variable universe")
	}
	if res.Abstraction.Has(z) {
		t.Fatalf("abstraction %v tracks irrelevant variable z", res.Abstraction)
	}
}
