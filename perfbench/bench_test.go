package main

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/core"
)

// fidelityPrograms are small suite members with delta resumes in their
// batches, so the donor path is exercised.
var fidelityPrograms = map[string]bool{"tsp": true, "hedc": true}

// TestWrapperFidelity pins that tracing cannot change what it measures:
// wrapped and bare problems give identical Results, BatchStats and digests,
// and the wrapper counts reconcile with what core returns.
func TestWrapperFidelity(t *testing.T) {
	ctx := context.Background()
	bare := &runCtx{workers: 2}
	progs, err := loadSuite(defaultSeed, bare, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	traced := &runCtx{workers: 2, tr: newTracer()}
	resumes := 0
	for _, l := range progs {
		if !fidelityPrograms[l.name] {
			continue
		}
		for _, g := range l.groups {
			var bareVs, tracedVs []verdict
			for _, q := range g.queries {
				ob, rb := solveOne(ctx, q, nil, bare, noSpan)
				ot, rt := solveOne(ctx, q, nil, traced, noSpan)
				if !reflect.DeepEqual(rb, rt) {
					t.Fatalf("%s: core.Solve differs under tracing:\n bare   %+v\n traced %+v", q.key, rb, rt)
				}
				bareVs, tracedVs = append(bareVs, ob.v), append(tracedVs, ot.v)
			}
			if digest(bareVs) != digest(tracedVs) {
				t.Fatalf("%s: Solve digests differ", g.name)
			}

			rb := solveBatchResult(t, g, bare)
			rt := solveBatchResult(t, g, traced)
			if !reflect.DeepEqual(rb.Stats, rt.Stats) {
				t.Fatalf("%s: BatchStats differ under tracing:\n bare   %+v\n traced %+v", g.name, rb.Stats, rt.Stats)
			}
			if !reflect.DeepEqual(rb.Results, rt.Results) {
				t.Fatalf("%s: SolveBatch results differ under tracing", g.name)
			}
			resumes += rt.Stats.DeltaResumes
		}
	}
	for _, err := range traced.recErrs {
		t.Error("reconciliation:", err)
	}
	if resumes == 0 {
		t.Fatal("no batch resumed a donor run; the donor path went untested")
	}
	if len(traced.tr.spans) == 0 {
		t.Fatal("the traced runs recorded no spans")
	}
}

func solveBatchResult(t *testing.T, g *group, r *runCtx) *core.BatchResult {
	t.Helper()
	idx := make([]int, len(g.queries))
	keys := make([]string, len(g.queries))
	for i, q := range g.queries {
		idx[i], keys[i] = q.idx, q.key
	}
	bp := g.spec.Batch(g.prog, idx, beamK)
	var tb *tracedBatch
	if r.tr != nil {
		sid := r.tr.begin("core.solve_batch", noSpan, g.name)
		defer r.tr.end(sid)
		bp, tb = wrapBatch(bp, r.tr, sid, keys, &r.lc)
	}
	res, err := core.SolveBatch(bp, core.Options{MaxIters: maxIters, Workers: r.workers})
	if err != nil {
		t.Fatal(err)
	}
	if tb != nil {
		r.reconcileBatch(g.name, tb, res)
	}
	return res
}

// TestDefaultSeedDigests reproduces the recorded digests of the default seed:
// the suite on the batch path and the whole edit-warm chain.
func TestDefaultSeedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("solves the whole suite")
	}
	ctx := context.Background()
	r := &runCtx{workers: 2}
	progs, err := loadSuite(defaultSeed, r, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := batchReference(ctx, groupsOf(progs), r.workers)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(vs); got != suiteDigest {
		t.Errorf("suite digest %s, recorded %s", got, suiteDigest)
	}
	if tl := tallyOf(vs); tl != (tally{proved: 665, impossible: 415, exhausted: 14}) {
		t.Errorf("suite verdicts: %s", tl)
	}

	ew := &editWarm{seed: defaultSeed, root: t.TempDir()}
	if err := ew.setup(r, noSpan); err != nil {
		t.Fatal(err)
	}
	out, err := ew.pass(ctx, r, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	if got := digest(verdictsOf(out)); got != editDigest {
		t.Errorf("edit-warm digest %s, recorded %s", got, editDigest)
	}
}

// TestSeedVariesInputs pins that the default seed is the suite itself, that
// another seed changes every generated input, and that it only renames: the
// programs keep their shape and their query counts.
func TestSeedVariesInputs(t *testing.T) {
	_, base := suiteSources(defaultSeed)
	_, other := suiteSources(defaultSeed + 1)
	for i, cfg := range bench.Suite() {
		if base[i] != bench.Generate(cfg) {
			t.Errorf("%s: the default seed changed the program", cfg.Name)
		}
		if other[i] == base[i] {
			t.Errorf("%s: another seed generated the same program", cfg.Name)
		}
		if strings.Count(other[i], "\n") != strings.Count(base[i], "\n") {
			t.Errorf("%s: renaming changed the program's shape", cfg.Name)
		}
	}
	r := &runCtx{workers: 1}
	a, err := loadSuite(defaultSeed, r, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadSuite(defaultSeed+1, r, noSpan)
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groupsOf(a) {
		if n := len(groupsOf(b)[i].queries); n != len(g.queries) {
			t.Errorf("%s: %d queries, %d under another seed", g.name, len(g.queries), n)
		}
	}

	order := func(seed int64) []string {
		w := &serve{seed: seed}
		defer w.close()
		if err := w.setup(r, noSpan); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(w.order))
		for i, q := range w.order {
			keys[i] = q.key
		}
		return keys
	}
	if reflect.DeepEqual(order(defaultSeed), order(defaultSeed+1)) {
		t.Error("another seed kept the serve order")
	}

	chain := func(seed int64) []string {
		w := &editWarm{seed: seed}
		if err := w.setup(r, noSpan); err != nil {
			t.Fatal(err)
		}
		return w.srcs
	}
	ca, cb := chain(defaultSeed), chain(defaultSeed+1)
	for i := range ca {
		if ca[i] == cb[i] {
			t.Errorf("edit step %d: another seed generated the same program", i)
		}
	}
}

// TestHDQuantile checks the incomplete beta function against closed forms
// and the Harrell-Davis estimate against symmetry and constant samples.
func TestHDQuantile(t *testing.T) {
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9*math.Max(1, math.Abs(want)) }
	for _, x := range []float64{0.01, 0.3, 0.5, 0.77, 0.999} {
		for _, c := range []struct{ a, b, want float64 }{
			{1, 1, x},
			{3.5, 1, math.Pow(x, 3.5)},
			{1, 11, 1 - math.Pow(1-x, 11)},
		} {
			if got := regIncBeta(c.a, c.b, x); !near(got, c.want) {
				t.Errorf("I_%g(%g, %g) = %.12g, want %.12g", x, c.a, c.b, got, c.want)
			}
		}
	}
	xs := make([]float64, 1094)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := hdQuantile(xs, 0.5); !near(got, 547.5) {
		t.Errorf("median of 1..1094 = %g, want 547.5", got)
	}
	if got, lo, hi := hdQuantile(xs, 0.99), xs[1079], xs[1086]; got < lo || got > hi {
		t.Errorf("p99 of 1..1094 = %g, want within [%g, %g]", got, lo, hi)
	}
	for i := range xs {
		xs[i] = 7
	}
	if got := hdQuantile(xs, 0.99); !near(got, 7) {
		t.Errorf("p99 of a constant sample = %g, want 7", got)
	}
}
