// Command perfbench is the repository's benchmark. It generates one workload
// from a seed, drives the solver stack through its public entry points,
// checks every verdict, and prints its metrics; the last line of standard
// output is one JSON object. See README.md in this directory.
//
//	go run . --workload suite-solve --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tracer/internal/core"
)

const (
	// defaultSeed generates the suite exactly as the paper-table
	// experiments do; its verdict digests are recorded below.
	defaultSeed = 1
	// beamK is the meta-analysis beam width of the paper's evaluation.
	beamK = 5
	// maxIters is the `make bench-json` iteration cap. It, not a wall
	// timeout, decides every Exhausted verdict.
	maxIters = 100
	// setupReps is how often a run repeats its set-up; setup_s is the median.
	setupReps = 7
	// safetyNet bounds a whole run. A solve it cuts short counts as a failed
	// operation, never as a verdict.
	safetyNet = 150 * time.Second
	// editSteps is the length of the edit-warm chain.
	editSteps = 12
)

// recordedDigests are the verdict digests of the default seed. suite-solve,
// suite-batch and serve answer the same queries and must agree.
var recordedDigests = map[string]string{
	"suite-solve": suiteDigest,
	"suite-batch": suiteDigest,
	"serve":       suiteDigest,
	"edit-warm":   editDigest,
}

const (
	suiteDigest = "66be6e8463e2cc29"
	editDigest  = "68188c2be54a23b3"
)

// workload is one benchmark workload. setup runs setupReps times, each call
// replacing the previous state; pass runs the timed work once; warmup asks
// for one untimed pass before the timed ones.
type workload interface {
	setup(r *runCtx, parent int32) error
	warmup() bool
	pass(ctx context.Context, r *runCtx, parent int32) ([]outcome, error)
	verify(ctx context.Context, r *runCtx, got []outcome) error
	close()
	sequential() bool
}

func newWorkload(name string, seed int64, outDir string, refs *refStore) (workload, error) {
	switch name {
	case "suite-solve":
		return &suiteSolve{seed: seed, refs: refs}, nil
	case "suite-batch":
		return &suiteBatch{suiteSolve{seed: seed, refs: refs}}, nil
	case "edit-warm":
		return &editWarm{seed: seed, refs: refs, root: filepath.Join(outDir, fmt.Sprintf("warm-%d", os.Getpid()))}, nil
	case "serve":
		return &serve{seed: seed, refs: refs}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want suite-solve, suite-batch, edit-warm or serve)", name)
}

// runCtx carries a run's tracer and the counts its passes accumulate. Passes
// drive it from one goroutine; the wrappers' layerCounts are atomic.
type runCtx struct {
	tr      *tracer // nil when untraced
	workers int

	lc         layerCounts
	jobBuilds  int
	iterations int
	clauses    int
	batch      core.BatchStats
	warm       warmCounts
	srv        serverCounts
	recErrs    []error
}

func (r *runCtx) reconcileErr(err error) { r.recErrs = append(r.recErrs, err) }

// addBatch accumulates one SolveBatch's results and statistics.
func (r *runCtx) addBatch(res *core.BatchResult) {
	for _, q := range res.Results {
		r.iterations += q.Iterations
		r.clauses += q.Clauses
	}
	s := &r.batch
	s.ForwardRuns += res.Stats.ForwardRuns
	s.TotalSteps += res.Stats.TotalSteps
	s.Rounds += res.Stats.Rounds
	s.FwdCacheHits += res.Stats.FwdCacheHits
	s.FwdCacheMisses += res.Stats.FwdCacheMisses
	s.DeltaResumes += res.Stats.DeltaResumes
	s.PEReused += res.Stats.PEReused
	s.PEInvalidated += res.Stats.PEInvalidated
}

// reconcileBatch checks the wrapper's counts against what core returned.
func (r *runCtx) reconcileBatch(name string, tb *tracedBatch, res *core.BatchResult) {
	iters := 0
	for _, q := range res.Results {
		iters += q.Iterations
	}
	check := func(what string, wrapper, coreN int) {
		if wrapper != coreN {
			r.reconcileErr(fmt.Errorf("%s: wrapper %s = %d, core reports %d", name, what, wrapper, coreN))
		}
	}
	check("BatchRun.Steps calls vs BatchStats.ForwardRuns", int(tb.steps.Load()), res.Stats.ForwardRuns)
	check("fresh forward runs vs BatchStats.FwdCacheMisses", int(tb.fresh.Load()), res.Stats.FwdCacheMisses)
	check("run DeltaStats resumes vs BatchStats.DeltaResumes", tb.deltaResumes(), res.Stats.DeltaResumes)
	check("BatchRun.Check calls vs sum of Result.Iterations", int(tb.checks.Load()), iters)
}

func main() {
	code, err := run(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "suite-solve", "workload: suite-solve, suite-batch, edit-warm or serve")
	seed := fs.Int64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time: whole passes, at least two, none started that would end later")
	trace := fs.Int("trace", 0, "1: run traced and report per-layer metrics")
	outDir := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for spans and warm stores")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	refs, err := openRefStore(*outDir)
	if err != nil {
		return 1, err
	}
	w, err := newWorkload(*name, *seed, *outDir, refs)
	if err != nil {
		return 2, err
	}
	defer w.close()
	// Batch workers and serve callers: at most one per CPU.
	r := &runCtx{workers: runtime.NumCPU()}
	if *trace == 1 {
		r.tr = newTracer()
	}
	ctx, cancel := context.WithTimeout(context.Background(), safetyNet)
	defer cancel()

	// Times are wall clock, with the share of CPU time the hypervisor stole
	// meanwhile taken out of their CPU-bound part (see steal.go).
	mtr := startMeter()
	defer mtr.close()
	setupMS := make([]float64, 0, setupReps)
	setupStart := time.Now()
	for i := 0; i < setupReps; i++ {
		runtime.GC() // every set-up starts from the same heap
		id := r.tr.begin("bench.setup", noSpan, "")
		t0 := time.Now()
		err := w.setup(r, id)
		setupMS = append(setupMS, msSince(t0))
		r.tr.end(id)
		if err != nil {
			return 1, fmt.Errorf("setup: %w", err)
		}
	}
	setupEnd := time.Now()
	runtime.GC()

	// A traced run alternates untraced and traced passes, starting
	// untraced: the tracing overhead is the ratio of their median walls, and
	// the per-layer metrics come from the traced passes alone.
	bare := r
	if r.tr != nil {
		bare = &runCtx{workers: r.workers}
	}
	if w.warmup() {
		if _, err := w.pass(ctx, &runCtx{workers: r.workers}, noSpan); err != nil {
			return 1, fmt.Errorf("warm-up pass: %w", err)
		}
		runtime.GC()
	}
	var passes, measured, baseline []*passRec
	mtr.passRSS()
	start := time.Now()
	// Whole passes, and no pass started that would be expected to end past
	// the measuring time once the first ones have run: two in an untraced
	// run, so that every query's time is a median of several, and one
	// traced pass in a traced run.
	minPasses := 2
	if r.tr != nil {
		minPasses = 1
	}
	last := 0.0
	for len(measured) < minPasses || msSince(start)+last <= *seconds*1000 {
		rc, id := r, noSpan
		if r.tr != nil && len(baseline) <= len(measured) {
			rc = bare
		} else {
			id = r.tr.begin("bench.pass", noSpan, "")
		}
		t0 := time.Now()
		out, err := w.pass(ctx, rc, id)
		p := &passRec{outs: out, start: t0, ms: msSince(t0)}
		last = p.ms
		r.tr.end(id)
		if err != nil {
			return 1, err
		}
		p.rssMB = mtr.passRSS()
		if rc != r {
			baseline = append(baseline, p)
		} else {
			measured = append(measured, p)
		}
		passes = append(passes, p)
	}

	setupSteal, _ := mtr.stolenBetween(setupStart, setupEnd)
	for _, p := range passes {
		p.steal, _ = mtr.stolenBetween(p.start, p.start.Add(time.Duration(p.ms*1e6)))
	}

	// Correctness: identical verdicts on every pass, the recorded digest on
	// the default seed, and the workload's own checks.
	var wrong []string
	first := passes[0].outs
	attempted, failed := 0, 0
	digests := make([]string, len(passes))
	for i, p := range passes {
		digests[i] = digest(verdictsOf(p.outs))
		if digests[i] != digests[0] {
			wrong = append(wrong, fmt.Sprintf("pass %d digest %s differs from pass 0 digest %s", i, digests[i], digests[0]))
		}
		for _, o := range p.outs {
			if o.bad {
				failed++
			}
		}
		attempted += len(p.outs)
	}
	if want := recordedDigests[*name]; *seed == defaultSeed && digests[0] != want {
		wrong = append(wrong, fmt.Sprintf("digest %s, recorded for the default seed: %s", digests[0], want))
	}
	if failed == 0 {
		if err := w.verify(ctx, r, first); err != nil {
			wrong = append(wrong, err.Error())
		}
	}
	for _, err := range r.recErrs {
		wrong = append(wrong, "reconciliation: "+err.Error())
	}

	t := tallyOf(verdictsOf(first))
	fmt.Printf("workload %s seed %d: %d pass(es), %d queries per pass (%s), digest %s\n",
		*name, *seed, len(passes), len(first), t, digests[0])
	fmt.Printf("pass walls ms: %s\n", fmtPasses(measured, (*passRec).wallMS))
	fmt.Printf("host steal share: %s (set-up %.3f)\n", fmtPasses(measured, (*passRec).stealShare), setupSteal)
	fmt.Printf("steal-adjusted pass walls ms: %s\n", fmtPasses(measured, (*passRec).adjMS))
	if len(baseline) > 0 {
		fmt.Printf("untraced pass walls ms: %s (steal-adjusted %s)\n",
			fmtPasses(baseline, (*passRec).wallMS), fmtPasses(baseline, (*passRec).adjMS))
	}
	adjMedian := func(ps []*passRec) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = p.adjMS()
		}
		return median(xs)
	}

	var metrics []metric
	if r.tr != nil {
		spans := r.tr.spans
		fmt.Print(summarize(spans, under(spans, "bench.pass")).render(len(measured)))
		metrics = layerMetrics(r, spans, len(measured), adjMedian(measured), adjMedian(baseline), *name == "suite-batch")
		if w.sequential() {
			if err := checkBusy(spans); err != nil {
				wrong = append(wrong, "reconciliation: "+err.Error())
			}
		}
		path := filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.ndjson", *name, *seed))
		if err := r.tr.writeFile(path); err != nil {
			return 1, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	} else {
		// Each query's latency is its median over the passes, so a burst of
		// host noise in one pass does not reach the percentiles.
		byKey := map[string][]float64{}
		rawByKey := map[string][]float64{}
		rssMB := make([]float64, len(measured))
		for i, p := range measured {
			for _, o := range p.outs {
				byKey[o.v.Key] = append(byKey[o.v.Key], o.adjMS(mtr, p.steal))
				rawByKey[o.v.Key] = append(rawByKey[o.v.Key], o.ms)
			}
			rssMB[i] = p.rssMB
		}
		lat, raw := medians(byKey), medians(rawByKey)
		n := float64(attempted)
		metrics = []metric{
			{"setup_s", median(setupMS) * (1 - setupSteal) / 1000, "s", setupReps},
			{"queries_per_s", float64(len(first)) / adjMedian(measured) * 1000, "1/s", len(measured)},
			{"query_ms_p50", hdQuantile(lat, 0.50), "ms", len(lat)},
			{"query_ms_p95", hdQuantile(lat, 0.95), "ms", len(lat)},
			{"decided_share", float64(t.proved+t.impossible) / float64(len(first)), "share", attempted},
			{"ok_share", 1 - float64(failed)/n, "share", attempted},
			{"peak_rss_mb", median(rssMB), "MB", len(rssMB)},
		}
		rawWalls := make([]float64, len(measured))
		for i, p := range measured {
			rawWalls[i] = p.ms
		}
		fmt.Printf("unadjusted: setup_s %.6f, queries_per_s %.4f, query_ms_p50 %.4f, query_ms_p95 %.4f\n",
			median(setupMS)/1000, float64(len(first))/median(rawWalls)*1000, hdQuantile(raw, 0.50), hdQuantile(raw, 0.95))
		fmt.Printf("failed_share %.6f (%d of %d)\n", float64(failed)/n, failed, attempted)
	}
	for _, m := range metrics {
		fmt.Printf("%-32s %14.6f %-6s n=%d\n", m.name, m.value, m.unit, m.samples)
	}
	for _, s := range wrong {
		fmt.Fprintln(os.Stderr, "WRONG:", s)
	}
	if err := printResult(len(wrong) == 0, attempted, failed, metrics); err != nil {
		return 1, err
	}
	if len(wrong) > 0 {
		return 1, errors.New("outputs are wrong")
	}
	return 0, nil
}

// metric is one reported number; samples is how many measurements it
// summarizes (printed, not part of the JSON result).
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

func printResult(correct bool, attempted, failed int, ms []metric) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{correct, attempted, failed, map[string]val{}}
	for _, m := range ms {
		out.Metrics[m.name] = val{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := len(s) / 2
	if len(s)%2 == 0 {
		return (s[h-1] + s[h]) / 2
	}
	return s[h]
}

// quantile is the nearest-rank quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// hdQuantile is the Harrell-Davis estimate of the q-quantile of sorted xs: a
// weighted mean of all order statistics, the weight of the i-th being the
// Beta(q(n+1), (1-q)(n+1)) probability of ((i-1)/n, i/n]. A nearest-rank
// percentile of a thousand query times is one query's time, so it jumps with
// whichever query lands at that rank; the Harrell-Davis estimate spreads the
// same quantile over the queries around that rank.
func hdQuantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	sum, prev := 0.0, 0.0
	for i, x := range sorted {
		cur := regIncBeta(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * x
		prev = cur
	}
	return sum
}

// regIncBeta is the regularized incomplete beta function I_x(a, b), by the
// continued fraction of Numerical Recipes (section 6.4), evaluated on the
// side of the mean where it converges fast.
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log1p(-x))
	if x < (a+1)/(a+b+2) {
		return front * betaCF(a, b, x) / a
	}
	return 1 - front*betaCF(b, a, 1-x)/b
}

// betaCF evaluates the continued fraction of I_x(a, b) by Lentz's method.
func betaCF(a, b, x float64) float64 {
	const eps, tiny = 1e-14, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 10000; m++ {
		num := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		num = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+num*d)
		c = clamp(1 + num/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// medians returns each group's median, sorted.
func medians(groups map[string][]float64) []float64 {
	out := make([]float64, 0, len(groups))
	for _, xs := range groups {
		out = append(out, median(xs))
	}
	sort.Float64s(out)
	return out
}

func fmtPasses(ps []*passRec, f func(*passRec) float64) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = strconv.FormatFloat(f(p), 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}
