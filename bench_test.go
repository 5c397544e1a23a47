package tracer

// Benchmarks regenerating the paper's evaluation (§6): one benchmark per
// table and figure, plus ablations for the design choices DESIGN.md calls
// out. Each testing.B iteration recomputes its experiment from scratch on a
// scaled-down query budget so that `go test -bench=.` finishes in minutes;
// `go run ./cmd/paperbench` runs the full-budget versions and prints the
// complete tables.

import (
	"fmt"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/driver"
	"tracer/internal/escape"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/minsat"
	"tracer/internal/uset"
)

// escapePrimFor adapts the thread-escape theory for the formula
// micro-benchmark below.
func escapePrimFor(_ *escape.Analysis, st lang.Store) formula.Prim {
	return escape.PField{F: st.F, O: escape.N}
}

// benchOpts is the scaled-down budget used inside testing.B loops.
func benchOpts() bench.RunOptions {
	return bench.RunOptions{
		K:          5,
		MaxIters:   100,
		Timeout:    300 * time.Millisecond,
		MaxQueries: 24,
		Fresh:      true,
	}
}

// BenchmarkTable1 regenerates the benchmark-statistics table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable1(rows))
		}
	}
}

// BenchmarkFigure12 regenerates the precision figure (proven / impossible /
// unresolved per benchmark per client).
func BenchmarkFigure12(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderFigure12(rows))
		}
	}
}

// BenchmarkFigure13 regenerates the k-sweep (k ∈ {1,5,10}) of the
// thread-escape client on the smallest four benchmarks.
func BenchmarkFigure13(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderFigure13(rows))
		}
	}
}

// BenchmarkTable2 regenerates the scalability table (iterations and
// thread-escape running times).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable2(rows))
		}
	}
}

// BenchmarkTable3 regenerates the cheapest-abstraction-size table.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable3(rows))
		}
	}
}

// BenchmarkTable4 regenerates the abstraction-reuse table.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderTable4(rows))
		}
	}
}

// BenchmarkFigure14 regenerates the histogram of cheapest abstraction sizes
// for the thread-escape client on the largest three benchmarks.
func BenchmarkFigure14(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.Figure14(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + bench.RenderFigure14(rows))
		}
	}
}

// ---------- ablations ----------

// BenchmarkAblationGrouping compares resolving the type-state queries of
// one benchmark individually vs through the §6 query-grouping batch driver.
func BenchmarkAblationGrouping(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[1]) // elevator
	opts := benchOpts()
	b.Run("individual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := bench.Run(bm, bench.Typestate, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grouped", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := bench.RunBatch(bm, bench.Typestate, opts)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(res.Stats.ForwardRuns), "forward-runs")
				b.ReportMetric(float64(res.Stats.TotalGroups), "groups")
			}
		}
	})
}

// BenchmarkAblationUnderApprox measures the backward meta-analysis with and
// without under-approximation on one failing run, reporting the formula
// blow-up that §6 attributes to disabling it.
func BenchmarkAblationUnderApprox(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[3]) // weblech
	esc := driver.ClientByName("escape")
	queries := esc.Queries(bm.Prog)
	if len(queries) == 0 {
		b.Fatal("no queries")
	}
	// Pick the failing query with the longest counterexample trace so the
	// backward pass has room to blow up.
	best, bestLen := -1, 0
	for i := range queries {
		out := esc.Job(bm.Prog, i, 5).Forward(nil, nil)
		if !out.Proved && len(out.Trace) > bestLen {
			best, bestLen = i, len(out.Trace)
		}
	}
	if best < 0 {
		b.Skip("all queries proven under the empty abstraction")
	}
	for _, cfg := range []struct {
		name string
		k    int
	}{{"k=1", 1}, {"k=5", 5}, {"off", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			job := esc.Job(bm.Prog, best, cfg.k).(*client.Job[escape.State])
			out := job.Forward(nil, nil)
			// The un-approximated backward pass blows up doubly
			// exponentially on full traces (the paper reports timeouts on
			// every query of even the smallest benchmark), so all variants
			// analyze the same bounded suffix of the counterexample. Even
			// there the formula-size metric shows the gap.
			trace := out.Trace
			const suffix = 40
			if len(trace) > suffix {
				trace = trace[len(trace)-suffix:]
			}
			dI := job.A.Initial()
			full := dataflow.StatesAlong(out.Trace, dI, job.A.Transfer(nil))
			states := full[len(full)-len(trace)-1:]
			post := job.A.NotQ(job.Goal)
			b.ResetTimer()
			maxSize := 0
			for i := 0; i < b.N; i++ {
				ann := meta.RunAnnotated(job.Client(nil), trace, states, post)
				for _, f := range ann {
					if f.Size() > maxSize {
						maxSize = f.Size()
					}
				}
			}
			b.ReportMetric(float64(maxSize), "max-formula-size")
		})
	}
}

// BenchmarkForwardTypestate measures one forward type-state solve over the
// largest benchmark's supergraph.
func BenchmarkForwardTypestate(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	job := driver.ClientByName("typestate").Job(bm.Prog, 0, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Forward(nil, nil)
	}
}

// BenchmarkForwardEscape measures one forward thread-escape solve (under
// the empty abstraction, every site mapped to E).
func BenchmarkForwardEscape(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[5]) // avrora
	job := driver.ClientByName("escape").Job(bm.Prog, 0, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Forward(nil, nil)
	}
}

// BenchmarkBackwardMeta measures one backward meta-analysis pass over a
// counterexample trace (k = 5).
func BenchmarkBackwardMeta(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[3]) // weblech
	job := driver.ClientByName("escape").Job(bm.Prog, 0, 5)
	out := job.Forward(nil, nil)
	if out.Proved {
		b.Skip("query proven under the empty abstraction")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Backward(nil, nil, out.Trace)
	}
}

// BenchmarkEngines compares the two interprocedural backends — the inlined
// supergraph with the intraprocedural solver vs. the RHS tabulation — on
// one forward thread-escape solve of the same program.
func BenchmarkEngines(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[2]) // hedc
	rhsProg, err := driver.LoadRHS(bm.Source)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("inline", func(b *testing.B) {
		job := driver.ClientByName("escape").Job(bm.Prog, 0, 5)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job.Forward(nil, nil)
		}
	})
	b.Run("rhs", func(b *testing.B) {
		job := driver.ClientByName("escape").RHSJob(rhsProg, 0, 5, false)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job.Forward(nil, nil)
		}
	})
}

// BenchmarkMinSAT measures the abstraction chooser on a clause set shaped
// like a long TRACER run: a chain forcing variables on one by one.
func BenchmarkMinSAT(b *testing.B) {
	const n = 60
	s := minsat.New(n)
	for i := 0; i < n-1; i++ {
		// ¬(x_i off): each clause requires x_i, emulating learned cubes.
		s.Block(nil, uset.New(i))
		// ¬(x_i on ∧ x_{i+1} off).
		s.Block(uset.New(i), uset.New(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Minimum(); !ok {
			b.Fatal("unexpectedly unsat")
		}
	}
}

// BenchmarkFormulaToDNF measures DNF conversion of a store weakest
// precondition, the largest single formula in either theory.
func BenchmarkFormulaToDNF(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[0])
	a := escape.New(bm.Prog.Locals, bm.Prog.Fields, bm.Prog.Sites)
	var store lang.Atom
	for _, e := range bm.Prog.Low.G.Edges {
		if s, ok := e.A.(lang.Store); ok {
			store = s
			break
		}
	}
	if store == nil {
		b.Skip("no store in benchmark")
	}
	st := store.(lang.Store)
	prim := escapePrimFor(a, st)
	u := formula.NewUniverse(escape.Theory{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := a.WP(store, prim)
		formula.ToDNF(f, u)
	}
}

// BenchmarkLowering measures parsing + points-to + inlining of the largest
// benchmark.
func BenchmarkLowering(b *testing.B) {
	cfg := bench.Suite()[5]
	src := bench.Generate(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := driver.Load(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSingleQuery measures one full TRACER resolution end to end.
func BenchmarkSingleQuery(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[2]) // hedc
	ts := driver.ClientByName("typestate")
	n := len(ts.Queries(bm.Prog))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := ts.Job(bm.Prog, i%n, 5)
		if _, err := core.Solve(job, core.Options{MaxIters: 100, Timeout: time.Second}); err != nil {
			b.Fatal(err)
		}
	}
}

// batchOpts is the budget for the batch-scheduler benchmarks. Unlike
// benchOpts it sets no per-run timeout: SolveBatch enforces Timeout as a
// whole-batch wall cap, and a 300ms cap would truncate the larger runs into
// the Exhausted bucket instead of measuring them.
func batchOpts(workers int) bench.RunOptions {
	return bench.RunOptions{
		K: 5, MaxIters: 100, MaxQueries: 24, Fresh: true, BatchWorkers: workers,
	}
}

// BenchmarkSolveBatch measures the grouped multi-query solver across worker
// counts. The scheduler's results are identical for every worker count (see
// TestSolveBatchWorkerDeterminism); only wall time may differ, so the
// speedup at Workers=4 over Workers=1 is the parallelism win on the host.
// Forward-run phases and memo hits are reported from the first iteration.
func BenchmarkSolveBatch(b *testing.B) {
	cases := []struct {
		idx    int
		client bench.Client
	}{
		{0, bench.Escape},    // tsp
		{0, bench.Typestate}, // tsp
		{3, bench.Typestate}, // weblech
	}
	for _, tc := range cases {
		bm := bench.MustLoad(bench.Suite()[tc.idx])
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/%s/workers=%d", bm.Config.Name, tc.client, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					res, err := bench.RunBatch(bm, tc.client, batchOpts(workers))
					if err != nil {
						b.Fatal(err)
					}
					if i == 0 {
						b.ReportMetric(float64(res.Stats.ForwardRuns), "forward-runs")
						b.ReportMetric(float64(res.Stats.FwdCacheHits), "memo-hits")
					}
				}
			})
		}
	}
}

// BenchmarkSolveBatchCache isolates the forward-run memo: the same batch
// with the memo disabled re-executes every forward phase.
func BenchmarkSolveBatchCache(b *testing.B) {
	bm := bench.MustLoad(bench.Suite()[0]) // tsp
	for _, tc := range []struct {
		name string
		size int
	}{{"memo", 0}, {"nomemo", -1}} {
		b.Run(tc.name, func(b *testing.B) {
			opts := batchOpts(1)
			opts.FwdCacheSize = tc.size
			for i := 0; i < b.N; i++ {
				res, err := bench.RunBatch(bm, bench.Escape, opts)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Stats.FwdCacheHits), "memo-hits")
					b.ReportMetric(float64(res.Stats.FwdCacheMisses), "memo-misses")
				}
			}
		})
	}
}
