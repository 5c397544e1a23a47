package escape

import (
	"testing"

	"tracer/internal/client"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// TestTransferRulesFig5 spells out the transfer function of Fig 5 case by
// case, as executable documentation. Universe: locals u, v; field f; sites
// h1, h2.
func TestTransferRulesFig5(t *testing.T) {
	a := newTestAnalysis()
	st := func(u, v, f Value) State {
		return a.StateOf(map[string]Value{"u": u, "v": v}, map[string]Value{"f": f})
	}
	h1 := uset.New(a.Sites.ID("h1"))

	cases := []struct {
		name string
		p    uset.Set
		atom lang.Atom
		in   State
		want State
	}{
		// v = new h: the site's mapping decides.
		{"alloc L", h1, lang.Alloc{V: "u", H: "h1"}, st(N, N, N), st(L, N, N)},
		{"alloc E", nil, lang.Alloc{V: "u", H: "h1"}, st(N, N, N), st(E, N, N)},
		// g = v: escapes everything if v is L, otherwise no-op.
		{"leak L collapses", h1, lang.GlobalWrite{G: "G", V: "u"}, st(L, L, L), st(E, E, N)},
		{"leak E no-op", h1, lang.GlobalWrite{G: "G", V: "u"}, st(E, L, L), st(E, L, L)},
		{"leak N no-op", h1, lang.GlobalWrite{G: "G", V: "u"}, st(N, L, E), st(N, L, E)},
		// v = g: always E.
		{"global read", nil, lang.GlobalRead{V: "u", G: "G"}, st(L, N, N), st(E, N, N)},
		// v = null, v = v'.
		{"null", nil, lang.MoveNull{V: "u"}, st(E, L, N), st(N, L, N)},
		{"move", nil, lang.Move{Dst: "u", Src: "v"}, st(E, L, N), st(L, L, N)},
		// v = v'.f: field value if the base is L, else E.
		{"load from L", nil, lang.Load{Dst: "u", Src: "v", F: "f"}, st(E, L, N), st(N, L, N)},
		{"load from E", nil, lang.Load{Dst: "u", Src: "v", F: "f"}, st(L, E, L), st(E, E, L)},
		{"load from N", nil, lang.Load{Dst: "u", Src: "v", F: "f"}, st(L, N, L), st(E, N, L)},
		// v.f = v': the six-way case analysis.
		{"store null base", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(L, N, N), st(L, N, N)},
		{"store L into E base", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(L, E, L), st(E, E, N)},
		{"store E into E base", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(E, E, L), st(E, E, L)},
		{"store N into L base", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(N, L, E), st(N, L, E)},
		{"store updates N field", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(E, L, N), st(E, L, E)},
		{"store same value", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(E, L, E), st(E, L, E)},
		{"store mixes L into E field", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(L, L, E), st(E, E, N)},
		{"store mixes E into L field", nil, lang.Store{Dst: "v", F: "f", Src: "u"}, st(E, L, L), st(E, E, N)},
		// Calls are identity at this level.
		{"invoke", nil, lang.Invoke{V: "u", M: "m"}, st(L, E, N), st(L, E, N)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := a.step(tc.p, tc.atom, tc.in)
			if got != tc.want {
				t.Fatalf("[%s]p(%s) = %s, want %s", tc.atom, a.Format(tc.in), a.Format(got), a.Format(tc.want))
			}
		})
	}
}

// TestQueryHolds: local(v) accepts L and N, rejects E.
func TestQueryHolds(t *testing.T) {
	a := newTestAnalysis()
	q := client.Goal{Subject: "u"}
	for val, want := range map[Value]bool{L: true, N: true, E: false} {
		d := a.StateOf(map[string]Value{"u": val}, nil)
		if got := a.Holds(q, d); got != want {
			t.Errorf("Holds(u=%s) = %v, want %v", val, got, want)
		}
	}
}
