package meta_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"tracer/internal/client"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// naiveBackward is a direct transcription of Fig 7 without the identity
// fast path, the WP cache, or DNF-level accumulation: the reference the
// optimized driver is checked against.
// initGoal asks for the automaton's initial state (index 0).
var initGoal = client.Goal{Want: uset.Bits(0).Add(0)}

func naiveBackward(c *meta.Client[typestate.State], t lang.Trace, states []typestate.State, post formula.Formula) []formula.DNF {
	out := make([]formula.DNF, len(t)+1)
	approx := func(f formula.Formula, d typestate.State) formula.DNF {
		holds := func(conj formula.Conj) bool {
			return conj.Eval(func(l formula.Lit) bool { return c.Eval(l, d) })
		}
		return formula.Approx(f, c.U, c.K, holds)
	}
	cur := approx(post, states[len(t)])
	out[len(t)] = cur
	for i := len(t) - 1; i >= 0; i-- {
		var disjuncts []formula.Formula
		for _, conj := range cur {
			var lits []formula.Formula
			for _, l := range conj.Lits() {
				wp := c.WP(t[i], l.P)
				if l.Neg {
					wp = formula.Not(wp)
				}
				lits = append(lits, wp)
			}
			disjuncts = append(disjuncts, formula.And(lits...))
		}
		cur = approx(formula.Or(disjuncts...), states[i])
		out[i] = cur
	}
	return out
}

func testSetup() (*typestate.Analysis, []lang.Atom) {
	a := typestate.New(typestate.FileProperty(), "h", []string{"x", "y"})
	atoms := []lang.Atom{
		lang.Alloc{V: "x", H: "h"},
		lang.Alloc{V: "y", H: "g"},
		lang.Move{Dst: "y", Src: "x"},
		lang.Move{Dst: "x", Src: "y"},
		lang.MoveNull{V: "y"},
		lang.Invoke{V: "x", M: "open"},
		lang.Invoke{V: "y", M: "close"},
		lang.Store{Dst: "x", F: "f", Src: "y"},
	}
	return a, atoms
}

// TestOptimizedDriverMatchesNaive compares the production driver (with its
// identity fast path and WP caching) against the naive Fig 7 transcription,
// point by point, on random traces, semantically over all (p, d).
func TestOptimizedDriverMatchesNaive(t *testing.T) {
	a, atoms := testSetup()
	rng := rand.New(rand.NewSource(31))
	abstractions := a.AllAbstractions()
	states := a.AllStates()
	post := a.NotQ(initGoal)
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(8)
		tr := make(lang.Trace, n)
		for i := range tr {
			tr[i] = atoms[rng.Intn(len(atoms))]
		}
		p := abstractions[rng.Intn(len(abstractions))]
		for _, k := range []int{1, 2, 0} {
			client := &meta.Client[typestate.State]{
				WP:   a.WP,
				U:    formula.NewUniverse(typestate.Theory{}),
				Eval: func(l formula.Lit, d typestate.State) bool { return a.EvalLit(l, p, d) },
				K:    k,
			}
			pre := dataflow.StatesAlong(tr, a.Initial(), a.Transfer(p))
			got := meta.RunAnnotated(client, tr, pre, post)
			ref := naiveBackward(client, tr, pre, post)
			for i := range got {
				for _, p0 := range abstractions {
					for _, d0 := range states {
						ev := func(l formula.Lit) bool { return a.EvalLit(l, p0, d0) }
						if got[i].Eval(ev) != ref[i].Eval(ev) {
							t.Fatalf("k=%d trace %q point %d: optimized %s vs naive %s differ at p=%v d=%s",
								k, tr, i, got[i], ref[i], p0, a.Format(d0))
						}
					}
				}
			}
		}
	}
}

// TestRunAnnotatedLengths and the state-length contract.
func TestRunAnnotatedLengths(t *testing.T) {
	a, _ := testSetup()
	client := &meta.Client[typestate.State]{
		WP:   a.WP,
		U:    formula.NewUniverse(typestate.Theory{}),
		Eval: func(l formula.Lit, d typestate.State) bool { return a.EvalLit(l, nil, d) },
		K:    1,
	}
	tr := lang.Trace{lang.MoveNull{V: "x"}}
	states := dataflow.StatesAlong(tr, a.Initial(), a.Transfer(nil))
	post := a.NotQ(initGoal)
	ann := meta.RunAnnotated(client, tr, states, post)
	if len(ann) != 2 {
		t.Fatalf("annotations = %d, want 2", len(ann))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched states length")
		}
	}()
	meta.RunAnnotated(client, tr, states[:1], post)
}

// TestWPCacheShared: results are identical with and without a shared cache.
func TestWPCacheShared(t *testing.T) {
	a, atoms := testSetup()
	cache := meta.NewWPCache()
	u := formula.NewUniverse(typestate.Theory{})
	tr := lang.Trace{atoms[0], atoms[2], atoms[5], atoms[6]}
	post := a.NotQ(initGoal)
	states := dataflow.StatesAlong(tr, a.Initial(), a.Transfer(nil))
	mk := func(c *meta.WPCache) formula.DNF {
		client := &meta.Client[typestate.State]{
			WP:    a.WP,
			U:     u,
			Eval:  func(l formula.Lit, d typestate.State) bool { return a.EvalLit(l, nil, d) },
			K:     1,
			Cache: c,
		}
		return meta.Run(client, tr, states, post)
	}
	first := mk(cache)
	second := mk(cache) // warm cache
	fresh := mk(nil)
	if first.String() != second.String() || first.String() != fresh.String() {
		t.Fatalf("cache changed results: %s / %s / %s", first, second, fresh)
	}
}

// TestWPCacheConcurrent drives many goroutines through one shared Universe
// and WPCache — the batch driver's sharing pattern — and requires every
// concurrent run to produce the same canonical DNF as a sequential one.
// Run under -race this pins the concurrency contract of both structures.
func TestWPCacheConcurrent(t *testing.T) {
	a, atoms := testSetup()
	u := formula.NewUniverse(typestate.Theory{})
	cache := meta.NewWPCache()
	post := a.NotQ(initGoal)
	traces := make([]lang.Trace, 8)
	rng := rand.New(rand.NewSource(17))
	for i := range traces {
		tr := make(lang.Trace, 3+rng.Intn(5))
		for j := range tr {
			tr[j] = atoms[rng.Intn(len(atoms))]
		}
		traces[i] = tr
	}
	run := func(tr lang.Trace) string {
		client := &meta.Client[typestate.State]{
			WP:    a.WP,
			U:     u,
			Eval:  func(l formula.Lit, d typestate.State) bool { return a.EvalLit(l, nil, d) },
			K:     2,
			Cache: cache,
		}
		states := dataflow.StatesAlong(tr, a.Initial(), a.Transfer(nil))
		return meta.Run(client, tr, states, post).String()
	}
	want := make([]string, len(traces))
	for i, tr := range traces {
		want[i] = run(tr) // sequential reference (also warms the shared state)
	}
	const workers = 8
	errs := make(chan error, workers*len(traces))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, tr := range traces {
				if got := run(tr); got != want[i] {
					errs <- fmt.Errorf("trace %d: concurrent %s != sequential %s", i, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestFlushUniverseObs: the flush reports every formula.* counter name —
// including the signature-filter pair — and consumes the deltas, so a second
// flush reports zero-valued deltas while the size gauge persists.
func TestFlushUniverseObs(t *testing.T) {
	u := formula.NewUniverse(typestate.Theory{})
	vars := []string{"a", "b", "c", "d"}
	var disjuncts []formula.Formula
	for i, x := range vars {
		c := formula.And(
			formula.L(typestate.PVar{X: x}),
			formula.L(typestate.PParam{X: vars[(i+1)%len(vars)]}),
		)
		disjuncts = append(disjuncts, c, formula.L(typestate.PVar{X: x}))
	}
	d := formula.ToDNF(formula.Or(disjuncts...), u)
	_ = d.And(d).Simplify()

	agg := obs.NewAgg()
	meta.FlushUniverseObs(agg, u)
	if agg.GaugeMax(obs.FormulaUniverseSize) == 0 {
		t.Fatal("flush did not report the universe size gauge")
	}
	if agg.Counter(obs.FormulaCubeProducts) == 0 {
		t.Fatal("flush did not report cube products")
	}
	if agg.Counter(obs.FormulaSigFiltered)+agg.Counter(obs.FormulaSubsumptionChecks) == 0 {
		t.Fatal("Simplify reported neither filtered pairs nor full checks")
	}
	// Deltas were consumed: a second flush adds nothing to the counters.
	before := agg.Counter(obs.FormulaCubeProducts)
	meta.FlushUniverseObs(agg, u)
	if got := agg.Counter(obs.FormulaCubeProducts); got != before {
		t.Fatalf("second flush re-reported consumed deltas: %d != %d", got, before)
	}
}

// cellPrim is an opaque primitive of the fill test's theory, which knows no
// entailments or contradictions between distinct cells.
type cellPrim struct{ I int }

func (p cellPrim) Key() string    { return fmt.Sprintf("c%05d", p.I) }
func (p cellPrim) String() string { return p.Key() }

type cellTheory struct{}

func (cellTheory) NegLit(formula.Lit) ([]formula.Lit, bool) { return nil, false }
func (cellTheory) Implies(a, b formula.Lit) bool            { return a == b }
func (cellTheory) Contradicts(a, b formula.Lit) bool        { return false }

// TestWPCacheConcurrentFill is TestWPCacheConcurrent for the per-literal
// fill path: 8 goroutines fill one cold cache, over literal IDs spanning
// four flag blocks, each starting in a different block, so every atom's
// flag and entry directories grow while other workers create blocks and set
// flags. Every lookup must return what a sequential fill of a separate cache
// returns, and every flag the sequential cache holds must be visible, with
// the same value, in the concurrently filled one.
func TestWPCacheConcurrentFill(t *testing.T) {
	const (
		nLits   = 2000 // four 512-literal flag blocks
		nAtoms  = 24
		workers = 8
	)
	u := formula.NewUniverse(cellTheory{})
	for i := 0; i < nLits+2; i++ {
		if id := u.LitID(formula.Lit{P: cellPrim{i}}); id != uint32(i) {
			t.Fatalf("cell %d interned as %d", i, id)
		}
	}
	atoms := make([]lang.Atom, nAtoms)
	index := map[lang.Atom]int{}
	for k := range atoms {
		atoms[k] = lang.Move{Dst: fmt.Sprintf("v%d", k), Src: "w"}
		index[atoms[k]] = k
	}
	// Most cells are the syntactic identity; every 89th is an identity that
	// only its DNF reveals, and every 97th (shifted per atom) changes.
	wp := func(a lang.Atom, p formula.Prim) formula.Formula {
		i := p.(cellPrim).I
		switch {
		case (i+index[a])%97 == 0:
			return formula.Or(formula.L(cellPrim{i + 1}), formula.L(cellPrim{i + 2}))
		case i%89 == 0:
			return formula.And(formula.L(p), formula.L(p))
		}
		return formula.L(p)
	}
	client := func(cache *meta.WPCache) *meta.Client[int] {
		return &meta.Client[int]{WP: wp, U: u, Cache: cache}
	}
	show := func(d formula.DNF, identity bool) string {
		if identity {
			return "identity"
		}
		return d.String()
	}

	ref := meta.NewWPCache()
	want := make([][]string, nAtoms)
	for k, a := range atoms {
		for lid := uint32(0); lid < nLits; lid++ {
			want[k] = append(want[k], show(meta.WPLit(client(ref), a, lid)))
		}
	}
	shared := meta.NewWPCache()
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := client(shared)
			for k, a := range atoms {
				for j := 0; j < nLits; j++ {
					lid := uint32((w*nLits/workers + j) % nLits)
					if got := show(meta.WPLit(c, a, lid)); got != want[k][lid] {
						errs <- fmt.Errorf("worker %d atom %d lit %d: concurrent %s, sequential %s", w, k, lid, got, want[k][lid])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var flags, identities int
	ref.EachLitFlag(func(a lang.Atom, lid uint32, identity, _ bool) {
		flags++
		if identity {
			identities++
		}
		if filled, got := shared.LitFlag(a, lid); !filled || got != identity {
			t.Errorf("atom %s lit %d: shared flag (filled %v, identity %v), sequential identity %v",
				a, lid, filled, got, identity)
		}
	})
	if flags != nAtoms*nLits || identities == flags {
		t.Fatalf("sequential cache holds %d flags (%d identities), want %d with some changes", flags, identities, nAtoms*nLits)
	}
	shared.EachLitFlag(func(a lang.Atom, lid uint32, identity, hasEntry bool) {
		if identity == hasEntry {
			t.Errorf("atom %s lit %d: identity %v but entry present %v", a, lid, identity, hasEntry)
		}
	})
}
