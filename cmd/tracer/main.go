// Command tracer runs the optimum-abstraction search on a mini-IR program.
//
// It answers the program's explicit queries ("query name local(v)" and
// "query name state(v: s1 s2 ...)") and, with -auto, also the pervasively
// generated queries of the paper's evaluation (§6): a type-state query per
// call site, and a thread-escape and a null-dereference query per field
// access.
//
// Usage:
//
//	tracer [-k 5] [-timeout 5s] [-auto] [-batch] [-batch-workers 4] [-warm-dir DIR] [-property file] program.tir
//
// With -auto -batch the generated queries go through the grouped
// multi-query solver (§6): queries whose learned clause sets coincide share
// forward runs, and -batch-workers schedules independent groups in
// parallel. Results are identical for every worker count.
//
// With -warm-dir the generated queries are warm-started from a persistent
// clause store (internal/warm): a later invocation on the same — or a
// slightly edited — program seeds each query with the previously learned
// blocking clauses that survive the IR delta, and saves what it learns back.
//
// The -property flag selects the automaton for explicit type-state queries:
// "file" (open/close protocol) or "stress" (the paper's fictitious
// evaluation property).
//
// Observability (see internal/obs and ARCHITECTURE.md):
//
//	-trace events.ndjson   write the structured event stream of every CEGAR
//	                       iteration (iter_start, forward_done, backward_done,
//	                       clause_learned, query_resolved, and the failure
//	                       events budget_trip / panic_recovered) plus inline
//	                       counter/gauge/timing records, one JSON object per
//	                       line, tagged with the query name
//	-metrics               print the aggregated counters, gauges, and timers
//	                       after all queries resolve
//	-cpuprofile cpu.pprof  capture a pprof CPU profile of the whole run
//	-memprofile mem.pprof  write a pprof heap profile at exit
//
// Failure model (see ARCHITECTURE.md "Failure model & cancellation"):
//
//	SIGINT                 cancels the solve cooperatively: in-flight phases
//	                       abort at their next budget poll, unresolved
//	                       queries report UNRESOLVED, and the NDJSON trace is
//	                       flushed before exit
//	-chaos-seed N          enable deterministic fault injection: panics,
//	                       delays, and budget trips fire pseudo-randomly at
//	                       the solver's hook points, reproducibly in the seed
//	                       (0 disables; see internal/faultinject)
//	-chaos-rate R          fraction of hook points that fire (default 0.05)
//
// Differential fuzzing (see "Ground truth & fuzzing" in ARCHITECTURE.md):
//
//	tracer -fuzz-n 10000 [-fuzz-seed 1] [-fuzz-meta]
//
// runs the brute-force oracle of internal/oracle on that many generated
// programs per client (type-state, thread-escape, and nullness) instead of
// analyzing a program file. Case i derives from seed+i, so every reported discrepancy
// replays in isolation; -fuzz-meta adds the metamorphic checks (parameter
// permutation, padding, batch worker/cache invariance). Exit status is
// nonzero iff a discrepancy survived shrinking.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/explain"
	"tracer/internal/faultinject"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/oracle"
	"tracer/internal/typestate"
	"tracer/internal/uset"
	"tracer/internal/warm"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "tracer:", err)
		os.Exit(1)
	}
}

func run() error {
	k := flag.Int("k", 5, "beam width k of the backward meta-analysis")
	timeout := flag.Duration("timeout", 5*time.Second, "per-query wall-clock budget")
	auto := flag.Bool("auto", false, "also answer pervasively generated queries (§6)")
	batch := flag.Bool("batch", false, "resolve -auto queries through the grouped multi-query solver (§6) instead of one at a time")
	batchWorkers := flag.Int("batch-workers", 1, "worker pool of the grouped solver; results are identical for every value")
	warmDir := flag.String("warm-dir", "", "persistent warm-start store for -auto queries (internal/warm): learned clauses are loaded at start and saved at exit, keyed by the program's IR fingerprint")
	engine := flag.String("engine", "inline", "forward engine: inline (context-sensitive inlining) or rhs (summary-based tabulation; supports recursion)")
	explainFlag := flag.Bool("explain", false, "narrate each CEGAR iteration (trace with α/ψ annotations, as in Figs 1 and 6)")
	property := flag.String("property", "file", "automaton for explicit type-state queries: file|stress")
	tracePath := flag.String("trace", "", "write NDJSON events of every CEGAR iteration to this file")
	metrics := flag.Bool("metrics", false, "print aggregated counters/gauges/timers after the run")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	chaosSeed := flag.Int64("chaos-seed", 0, "enable deterministic fault injection with this seed (0 = off)")
	chaosRate := flag.Float64("chaos-rate", 0.05, "fraction of hook points that fire under -chaos-seed")
	fuzzSeed := flag.Int64("fuzz-seed", 1, "base seed of the differential fuzzer; case i uses seed+i")
	fuzzN := flag.Int("fuzz-n", 0, "run the differential oracle on this many generated cases per client instead of analyzing a program (0 = off)")
	fuzzMeta := flag.Bool("fuzz-meta", false, "also run the metamorphic checks (permutation, padding, batch invariance) on every fuzz case")
	flag.Parse()

	if *fuzzN > 0 {
		return runFuzz(*fuzzSeed, *fuzzN, *fuzzMeta)
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracer [flags] program.tir")
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
			}
		}()
	}

	var sinks []obs.Recorder
	if *tracePath != "" {
		nd, err := obs.CreateNDJSON(*tracePath)
		if err != nil {
			return err
		}
		defer func() {
			if err := nd.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "tracer:", err)
			}
		}()
		sinks = append(sinks, nd)
	}
	var agg *obs.Agg
	if *metrics {
		agg = obs.NewAgg()
		sinks = append(sinks, agg)
	}
	rec := obs.Multi(sinks...)
	// SIGINT cancels cooperatively: in-flight phases abort at their next
	// budget poll, partial results are printed, and the deferred NDJSON
	// close above still flushes the trace.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	opts := core.Options{MaxIters: 1000, Timeout: *timeout, Context: ctx}
	if *chaosSeed != 0 {
		opts.Inject = faultinject.Seeded(*chaosSeed, *chaosRate)
		fmt.Printf("[chaos: injecting faults at ~%.0f%% of hook points, seed %d]\n", *chaosRate*100, *chaosSeed)
	}

	var prop *typestate.Property
	switch *property {
	case "file":
		prop = typestate.FileProperty()
	case "stress":
		prop = typestate.StressProperty(nil)
	default:
		return fmt.Errorf("unknown -property %q", *property)
	}

	opts.Workers = *batchWorkers

	if *engine == "rhs" {
		if err := runRHS(string(src), prop, *k, opts, rec); err != nil {
			return err
		}
	} else {
		if err := runInline(string(src), prop, *k, opts, rec, *auto, *batch, *explainFlag, *warmDir); err != nil {
			return err
		}
	}

	if agg != nil {
		fmt.Print(agg.Render())
	}
	return nil
}

// runFuzz cross-checks the CEGAR loop against the brute-force oracle on
// seeded generated programs for every client, printing every discrepancy
// (already minimized by the deterministic shrinker) with its replay seed.
func runFuzz(seed int64, n int, meta bool) error {
	opts := oracle.FuzzOptions{Seed: seed, N: n, Meta: meta}
	var total int
	for _, spec := range driver.Clients() {
		start := time.Now()
		ds := oracle.Fuzz(spec.Name, opts)
		fmt.Printf("fuzz %-9s  %d cases, seed %d, meta=%v: %d discrepancies  [%v]\n",
			spec.Name, n, seed, meta, len(ds), time.Since(start).Round(time.Millisecond))
		for _, d := range ds {
			fmt.Println(d)
		}
		total += len(ds)
	}
	if total > 0 {
		return fmt.Errorf("%d oracle discrepancies", total)
	}
	return nil
}

// runInline answers queries through the context-sensitive inlining engine.
func runInline(src string, prop *typestate.Property, k int, opts core.Options, rec obs.Recorder, auto, batch, explainFlag bool, warmDir string) error {
	prog, err := driver.Load(src)
	if err != nil {
		return err
	}

	report := func(name string, job core.Problem, paramName func(i int) string) error {
		qopts := opts
		qopts.Recorder = obs.Tag(rec, name)
		start := time.Now()
		res, err := core.Solve(job, qopts)
		if err != nil {
			return err
		}
		printResult(name, res, paramName, time.Since(start))
		return nil
	}

	// Explicit queries.
	tsJobs, escJobs, err := prog.ExplicitJobs(prop, k)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(tsJobs) {
		job := tsJobs[name]
		if explainFlag {
			fmt.Printf("=== query %s ===\n", name)
			if _, err := explain.ForTypestate(job, os.Stdout).Solve(opts); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := report("query "+name, job, job.ParamName); err != nil {
			return err
		}
	}
	for _, name := range sortedKeys(escJobs) {
		job := escJobs[name]
		if explainFlag {
			fmt.Printf("=== query %s ===\n", name)
			if _, err := explain.ForEscape(job, os.Stdout).Solve(opts); err != nil {
				return err
			}
			fmt.Println()
			continue
		}
		if err := report("query "+name, job, job.ParamName); err != nil {
			return err
		}
	}

	if auto {
		stats := prog.ComputeStats(src)
		fmt.Printf("\nGenerated queries (N_ts=%d variables, N_esc=%d sites, N_null=%d cells):\n",
			stats.TypestateParams, stats.EscapeParams, stats.NullnessParams)
		// The warm store applies to the generated queries only: explicit
		// queries have no position-independent key. Sessions are created
		// lazily per client so a typestate-only program writes no escape
		// snapshot.
		store := warm.Open(warmDir, rec)
		session := func(spec *driver.ClientSpec) *warm.Session {
			cl, ok := warm.ClientOf(spec.Name)
			if !store.Enabled() || !ok {
				return nil
			}
			return store.Session(prog, warm.Config{
				Client: cl, K: k, MaxIters: opts.MaxIters, Timeout: opts.Timeout,
			})
		}
		if batch {
			return runBatch(prog, k, opts, rec, session)
		}
		solveWarm := func(q string, key string, sess *warm.Session, job core.Problem, paramName func(i int) string) error {
			if sess != nil {
				if r, ok := sess.Replay(key); ok {
					printResult(q, r, paramName, 0)
					return nil
				}
			}
			qopts := opts
			qopts.Recorder = obs.Tag(rec, q)
			if sess != nil {
				qopts.Seed = sess.SeedFor(key)
				qopts.OnLearn = func(_ int, _ uset.Set, t lang.Trace, cubes []core.ParamCube) {
					sess.RecordLearn(key, t, cubes)
				}
			}
			start := time.Now()
			res, err := core.Solve(job, qopts)
			if err != nil {
				return err
			}
			if sess != nil {
				sess.RecordResult(key, res)
			}
			printResult(q, res, paramName, time.Since(start))
			return nil
		}
		for _, spec := range driver.Clients() {
			sess := session(spec)
			names := spec.ParamNames(prog)
			paramName := func(i int) string { return names[i] }
			for i, q := range spec.Queries(prog) {
				if err := solveWarm(q.ID, q.Key, sess, spec.Job(prog, i, k), paramName); err != nil {
					return err
				}
			}
			if sess != nil {
				if err := sess.Save(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// runBatch resolves the generated queries through the grouped multi-query
// solver of §6: queries with identical learned-clause sets share forward
// runs, and opts.Workers schedules independent groups in parallel.
func runBatch(prog *driver.Program, k int, opts core.Options, rec obs.Recorder, session func(*driver.ClientSpec) *warm.Session) error {
	type batchCase struct {
		ids, keys []string
		paramName func(i int) string
		problem   core.BatchProblem
		sess      *warm.Session
	}
	cases := []batchCase{}
	for _, spec := range driver.Clients() {
		qs := spec.Queries(prog)
		if len(qs) == 0 {
			continue
		}
		idx := make([]int, len(qs))
		ids := make([]string, len(qs))
		keys := make([]string, len(qs))
		for i, q := range qs {
			idx[i], ids[i], keys[i] = i, q.ID, q.Key
		}
		names := spec.ParamNames(prog)
		cases = append(cases, batchCase{ids, keys, func(i int) string { return names[i] }, spec.Batch(prog, idx, k), session(spec)})
	}
	for _, c := range cases {
		bopts := opts
		bopts.Recorder = rec
		if bopts.Timeout > 0 {
			bopts.Timeout *= time.Duration(len(c.ids)) // opts.Timeout is per query
		}
		if c.sess != nil {
			sess, keys := c.sess, c.keys
			bopts.SeedBatch = func(q int) []core.ParamCube { return sess.SeedFor(keys[q]) }
			bopts.OnLearn = func(q int, _ uset.Set, t lang.Trace, cubes []core.ParamCube) {
				sess.RecordLearn(keys[q], t, cubes)
			}
		}
		start := time.Now()
		res, err := core.SolveBatch(c.problem, bopts)
		if err != nil {
			return err
		}
		wall := time.Since(start)
		for i, r := range res.Results {
			printResult(c.ids[i], r, c.paramName, wall/time.Duration(len(res.Results)))
		}
		if c.sess != nil {
			// Exhausted verdicts from a batch are measured against the shared
			// batch budget, not a per-query one; persisting them would make
			// them look replayable to a later per-query run. Verdict-bearing
			// statuses only.
			for i, r := range res.Results {
				if r.Status == core.Proved || r.Status == core.Impossible {
					c.sess.RecordResult(c.keys[i], r)
				}
			}
			if err := c.sess.Save(); err != nil {
				return err
			}
		}
		fmt.Printf("[batch: %d queries, %d forward phases (%d memo hits), %d groups, %d rounds, %v]\n",
			len(res.Results), res.Stats.ForwardRuns, res.Stats.FwdCacheHits,
			res.Stats.TotalGroups, res.Stats.Rounds, wall.Round(time.Millisecond))
	}
	return nil
}

// runRHS answers the program's explicit queries with the summary-based
// tabulation backend, which also handles recursive call graphs.
func runRHS(src string, prop *typestate.Property, k int, opts core.Options, rec obs.Recorder) error {
	p, err := driver.LoadRHS(src)
	if err != nil {
		return err
	}
	jobs, err := p.ExplicitJobs(prop, k)
	if err != nil {
		return err
	}
	names := make([]string, 0, len(jobs))
	for name := range jobs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		job := jobs[name]
		qopts := opts
		qopts.Recorder = obs.Tag(rec, "query "+name)
		job.Observe(qopts.Recorder)
		start := time.Now()
		res, err := core.Solve(job, qopts)
		if err != nil {
			return err
		}
		printResult("query "+name, res, job.ParamName, time.Since(start))
	}
	return nil
}

// printResult renders one resolved query in the fixed-width report format.
func printResult(name string, res core.Result, paramName func(i int) string, wall time.Duration) {
	switch res.Status {
	case core.Proved:
		names := make([]string, 0, res.Abstraction.Len())
		for _, i := range res.Abstraction.Elems() {
			names = append(names, paramName(i))
		}
		fmt.Printf("%-40s PROVED    cheapest abstraction (|p|=%d): %v  [%d iterations, %v]\n",
			name, res.Abstraction.Len(), names, res.Iterations, wall.Round(time.Millisecond))
	case core.Impossible:
		fmt.Printf("%-40s IMPOSSIBLE  no abstraction in the family proves it  [%d iterations, %v]\n",
			name, res.Iterations, wall.Round(time.Millisecond))
	case core.Failed:
		fmt.Printf("%-40s FAILED      %s  [%d iterations]\n", name, res.Failure, res.Iterations)
	default:
		fmt.Printf("%-40s UNRESOLVED  budget exhausted after %d iterations\n", name, res.Iterations)
	}
}

func sortedKeys[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
