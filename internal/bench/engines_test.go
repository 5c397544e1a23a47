package bench

import (
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestEnginesAgreeOnSuite cross-validates the two interprocedural backends
// on a generated benchmark for every registered client: each §6-style query must resolve to the same
// status, with the same cheapest-abstraction size, whether the program is
// analyzed over the inlined CFG or over the RHS supergraph. Queries are
// matched by their source-statement identity (the IDs embed positions,
// which coincide because both pipelines parse the same source).
func TestEnginesAgreeOnSuite(t *testing.T) {
	cfg := Suite()[0] // tsp
	b := MustLoad(cfg)
	rhsProg, err := driver.LoadRHS(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.Options{MaxIters: 300}

	const cap = 15
	for _, c := range driver.Clients() {
		inl := c.Queries(b.Prog)
		tab := c.RHSQueries(rhsProg)
		if len(inl) != len(tab) {
			t.Fatalf("%s query counts differ: inline %d vs rhs %d", c.Name, len(inl), len(tab))
		}
		for i := range inl {
			if i >= cap {
				break
			}
			if inl[i].ID != tab[i].ID {
				t.Fatalf("%s query %d: ids differ: %s vs %s", c.Name, i, inl[i].ID, tab[i].ID)
			}
			want, err := core.Solve(c.Job(b.Prog, i, 5), opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.Solve(c.RHSJob(rhsProg, i, 5, false), opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status {
				t.Errorf("%s: rhs %v vs inline %v", inl[i].ID, got.Status, want.Status)
			}
			if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
				t.Errorf("%s: rhs |p|=%d vs inline %d", inl[i].ID, got.Abstraction.Len(), want.Abstraction.Len())
			}
		}
	}
}
