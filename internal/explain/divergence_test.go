package explain

import (
	"strings"
	"testing"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// duplicatingInner tampers with a problem's backward pass by duplicating
// its first cube. The solver's behavior is unchanged (the duplicate clause
// is deduplicated by minsat), but the learned sequence no longer matches
// what the narration recomputes — exactly the silent divergence the
// narrator used to trust away.
type duplicatingInner struct {
	core.Problem
}

func (d duplicatingInner) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	cubes := d.Problem.Backward(b, p, t)
	if len(cubes) > 0 {
		cubes = append(cubes[:len(cubes):len(cubes)], cubes[0])
	}
	return cubes
}

func divergenceJob(t *testing.T) *client.Job[typestate.State] {
	t.Helper()
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.Atoms(lang.Invoke{V: "x", M: "open"}),
		lang.Atoms(lang.Invoke{V: "y", M: "close"}),
	)
	g := lang.BuildCFG(prog)
	vars, _, _ := lang.Names(g)
	a := typestate.New(typestate.FileProperty(), "h", vars)
	closed := uset.Bits(0).Add(a.Prop.MustState("closed"))
	return client.NewJob[typestate.State](a, client.Goal{Want: closed}, g, []int{g.Exit}, 1)
}

// TestBackwardDivergenceWarning: when the inner problem's cubes differ from
// the narrated recomputation, the narration carries an explicit warning
// showing both sequences instead of silently describing a pass the solver
// never learned. A faithful inner problem produces no warning.
func TestBackwardDivergenceWarning(t *testing.T) {
	var clean strings.Builder
	res, err := ForTypestate(divergenceJob(t), &clean).Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("result = %+v, want proved", res)
	}
	if strings.Contains(clean.String(), "WARNING") {
		t.Fatalf("faithful narration contains a divergence warning:\n%s", clean.String())
	}

	var sb strings.Builder
	pr := ForTypestate(divergenceJob(t), &sb)
	pr.Inner = duplicatingInner{Problem: pr.Inner}
	tampered, err := pr.Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The duplicate clause is deduplicated, so the resolution is unchanged…
	if tampered.Status != res.Status || !tampered.Abstraction.Equal(res.Abstraction) {
		t.Fatalf("tampering changed the resolution: %+v vs %+v", tampered, res)
	}
	// …which is exactly why the divergence must be called out explicitly.
	out := sb.String()
	for _, want := range []string{
		"WARNING: narration diverges from the solver's backward pass",
		"narrated cubes:",
		"solver learned:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tampered narration missing %q:\n%s", want, out)
		}
	}
}
