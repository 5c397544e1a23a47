package oracle

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/uset"
)

// nullnessHandJob builds the nullness analogue of the paper's Fig 1(a):
//
//	x = new h; y = x; if (*) z = null; check(y non-nil)
//
// Proving y non-nil at exit needs exactly the cells {x, y} tracked: an
// untracked x degrades to ⊤ at the allocation, and an untracked y degrades
// to ⊤ at the copy, so the hand-computed minimum cost is 2. The z query is
// impossible — z is null on the branch (and uninitialized otherwise) under
// every abstraction.
func nullnessHandJob(v string) *client.Job[nullness.State] {
	prog := lang.SeqN(
		lang.Atoms(lang.Alloc{V: "x", H: "h"}),
		lang.Atoms(lang.Move{Dst: "y", Src: "x"}),
		lang.If(lang.Atoms(lang.MoveNull{V: "z"})),
	)
	g := lang.BuildCFG(prog)
	locals, fields, _ := lang.Names(g)
	a := nullness.New(locals, fields)
	return client.NewJob[nullness.State](a, client.Goal{Subject: v}, g, []int{g.Exit}, 1)
}

// TestNullnessHandExample runs the brute-force oracle on the hand example:
// the enumerated minimum must equal the hand-computed cost 2 ({x, y}), the
// solver must find exactly that abstraction, the z query must enumerate as
// impossible, and the full differential check must pass for both queries
// under the beam widths the paper discusses (k = 1 and k = 0).
func TestNullnessHandExample(t *testing.T) {
	truth := Enumerate(nullnessHandJob("y"))
	if !truth.Possible() {
		t.Fatal("check(y) enumerated as impossible; hand computation proves it at cost 2")
	}
	if got := truth.MinCost(); got != 2 {
		t.Fatalf("check(y) enumerated minimum cost = %d, hand-computed cost is 2", got)
	}
	for _, k := range []int{1, 0} {
		if v := CheckSolve(func() core.Problem { j := nullnessHandJob("y"); j.K = k; return j }, core.Options{}); len(v) != 0 {
			t.Fatalf("k=%d oracle violations: %v", k, v)
		}
	}

	res, err := core.Solve(nullnessHandJob("y"), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := nullnessHandJob("y")
	a := j.A.(*nullness.Analysis)
	want := uset.New(a.Locals.ID("x")).Add(a.Locals.ID("y"))
	if !res.Abstraction.Equal(want) {
		t.Fatalf("abstraction = %v, want {x, y}", res.Abstraction)
	}

	if truth := Enumerate(nullnessHandJob("z")); truth.Possible() {
		t.Fatal("check(z) enumerated as possible; z is null on the branch under every abstraction")
	}
	if v := CheckSolve(func() core.Problem { return nullnessHandJob("z") }, core.Options{}); len(v) != 0 {
		t.Fatalf("check(z) oracle violations: %v", v)
	}
}

// TestFuzzNullnessProperties is the nullness twin of the tier-1 fixed-seed
// sweeps: 2000 cases through minimality, impossibility, and cube soundness.
func TestFuzzNullnessProperties(t *testing.T) {
	if ds := Fuzz("nullness", FuzzOptions{Seed: 1, N: 2000}); len(ds) != 0 {
		t.Fatalf("%d discrepancies, first:\n%s", len(ds), ds[0])
	}
}

// TestFuzzNullnessMetamorphic is the nullness metamorphic sweep (permutation,
// padding, delta-vs-cold, batch worker/cache invariance, warm seeding).
func TestFuzzNullnessMetamorphic(t *testing.T) {
	if ds := Fuzz("nullness", FuzzOptions{Seed: 42, N: 300, Meta: true}); len(ds) != 0 {
		t.Fatalf("%d discrepancies, first:\n%s", len(ds), ds[0])
	}
}
