package explain

import (
	"strings"
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// TestNarratedFigure1: the narrated run resolves exactly like the plain
// run and the narration contains the Fig 1 landmarks.
func TestNarratedFigure1(t *testing.T) {
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
	job := client.NewJob[typestate.State](a, client.Goal{Want: closed}, g, []int{g.Exit}, 1)

	plain, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	narrated, err := ForTypestate(job, &sb).Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if narrated.Status != plain.Status || !narrated.Abstraction.Equal(plain.Abstraction) {
		t.Fatalf("narration changed the result: %+v vs %+v", narrated, plain)
	}
	out := sb.String()
	for _, want := range []string{
		"iteration 1: forward analysis with p = {}",
		"x = new h;",
		"α ⊤",
		"eliminated: every p with x∉p",
		"iteration 3",
		"PROVED with cheapest abstraction p = {x, y}",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
}

// TestNarratedFigure6: the escape narration renders the site mapping and
// the eliminated cubes of Fig 6(b).
func TestNarratedFigure6(t *testing.T) {
	prog := lang.Atoms(
		lang.Alloc{V: "u", H: "h1"},
		lang.Alloc{V: "v", H: "h2"},
		lang.Store{Dst: "v", F: "f", Src: "u"},
	)
	g := lang.BuildCFG(prog)
	locals, fields, sites := lang.Names(g)
	a := escape.New(locals, fields, sites)
	job := client.NewJob[escape.State](a, client.Goal{Subject: "u"}, g, []int{g.Exit}, 1)

	var sb strings.Builder
	res, err := ForEscape(job, &sb).Solve(core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved || res.Iterations != 3 {
		t.Fatalf("result = %+v", res)
	}
	out := sb.String()
	for _, want := range []string{
		"p = [h1↦E, h2↦E]",
		"eliminated: every p with h1↦E",
		"eliminated: every p with h1↦L with h2↦E",
		"PROVED with cheapest abstraction p = [h1↦L, h2↦L]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("narration missing %q:\n%s", want, out)
		}
	}
}
