// Quickstart: the paper's §2 worked example (Fig 1), executed live.
//
// The program manipulates a File object with an open/close protocol:
//
//	x = new File; y = x; if (*) z = x; x.open(); y.close();
//	if (*) check1(x, closed) else check2(x, opened)
//
// TRACER proves check1 with the cheapest abstraction {x, y} in three
// iterations and shows check2 impossible for every abstraction in two.
// Each iteration prints the abstract counterexample trace with the forward
// states (α) and the backward meta-analysis conditions (ψ), matching the
// annotations of Fig 1(c)–(e).
package main

import (
	"fmt"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

func main() {
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.If(lang.Atoms(lang.Move{Dst: "z", Src: "x"})),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	fmt.Println("Program (Fig 1a):")
	fmt.Print(indent(lang.Format(prog)))
	g := lang.BuildCFG(prog)
	vars, _, _ := lang.Names(g)
	a := typestate.New(typestate.FileProperty(), "h", vars)

	closed := uset.Bits(0).Add(a.Prop.MustState("closed"))
	opened := uset.Bits(0).Add(a.Prop.MustState("opened"))

	solve(a, g, "check1(x, closed)", closed)
	solve(a, g, "check2(x, opened)", opened)
}

// solve runs TRACER verbosely for one query.
func solve(a *typestate.Analysis, g *lang.CFG, name string, want uset.Bits) {
	fmt.Printf("\n=== query %s ===\n", name)
	job := client.NewJob[typestate.State](a, client.Goal{Subject: "h", Want: want}, g, []int{g.Exit}, 1)

	// Wrap the job so each TRACER iteration prints Fig 1's annotations.
	iter := 0
	problem := &verboseProblem{job: job, a: a, iter: &iter}
	res, err := core.Solve(problem, core.Options{})
	if err != nil {
		panic(err)
	}
	switch res.Status {
	case core.Proved:
		names := []string{}
		for _, v := range res.Abstraction.Elems() {
			names = append(names, a.Vars.Value(v))
		}
		fmt.Printf("PROVED with cheapest abstraction p = %v after %d iterations\n", names, res.Iterations)
	case core.Impossible:
		fmt.Printf("IMPOSSIBLE: no abstraction proves it (%d iterations)\n", res.Iterations)
	default:
		fmt.Printf("unresolved after %d iterations\n", res.Iterations)
	}
}

// verboseProblem wraps a type-state job, printing what Fig 1 shows: the
// trace annotated with forward states and meta-analysis formulas.
type verboseProblem struct {
	job  *client.Job[typestate.State]
	a    *typestate.Analysis
	iter *int
}

func (v *verboseProblem) NumParams() int { return v.job.NumParams() }

func (v *verboseProblem) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	*v.iter++
	names := []string{}
	for _, x := range p.Elems() {
		names = append(names, v.a.Vars.Value(x))
	}
	fmt.Printf("\niteration %d: running forward analysis with p = %v\n", *v.iter, names)
	out := v.job.Forward(b, p)
	if out.Proved {
		fmt.Println("  query proven")
	}
	return out
}

func (v *verboseProblem) Backward(_ *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	dI := v.a.Initial()
	states := dataflow.StatesAlong(t, dI, v.a.Transfer(p))
	ann := meta.RunAnnotated(v.job.Client(p), t, states, v.a.NotQ(v.job.Goal))
	fmt.Println("  counterexample trace (α = forward state, ψ = failure condition):")
	fmt.Printf("    %-24s α %-28s ψ %s\n", "", v.a.Format(states[0]), ann[0])
	for i, atom := range t {
		fmt.Printf("    %-24s α %-28s ψ %s\n", atom.String()+";", v.a.Format(states[i+1]), ann[i+1])
	}
	cubes := v.job.Cubes(ann[0], dI)
	for _, c := range cubes {
		fmt.Printf("  eliminated abstractions: %s\n", describeCube(v.a, c))
	}
	return cubes
}

func describeCube(a *typestate.Analysis, c core.ParamCube) string {
	out := "every p"
	for _, x := range c.Pos.Elems() {
		out += fmt.Sprintf(" with %s∈p", a.Vars.Value(x))
	}
	for _, x := range c.Neg.Elems() {
		out += fmt.Sprintf(" with %s∉p", a.Vars.Value(x))
	}
	return out
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "  " + line + "\n"
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
