package main

import (
	"context"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// query is one registry query of one loaded program.
type query struct {
	prog  *driver.Program
	spec  *driver.ClientSpec
	idx   int      // index into spec.Queries(prog)
	id    string   // the query's display ID, the server's selector
	wkey  string   // the position-independent key, the warm store's identity
	key   string   // the verdict key: program/client/wkey
	names []string // the client's parameter names, shared per program
}

// group is all queries of one client on one program: one core.SolveBatch.
type group struct {
	name    string
	prog    *driver.Program
	spec    *driver.ClientSpec
	queries []*query
}

// loaded is one generated, loaded program with its registry queries.
type loaded struct {
	name   string
	src    string
	prog   *driver.Program
	groups []*group
}

// renamedFamilies are the generated identifier families a seed permutes:
// classes, service methods, allocation sites, globals, fields and receiver
// locals.
var renamedFamilies = []*regexp.Regexp{
	regexp.MustCompile(`\bC\d+\b`),
	regexp.MustCompile(`\bsvc\d+\b`),
	regexp.MustCompile(`\bh\d+\b`),
	regexp.MustCompile(`\bG\d+\b`),
	regexp.MustCompile(`\bfld\d+\b`),
	regexp.MustCompile(`\bpfld\d+\b`),
	regexp.MustCompile(`\brcv\d+\b`),
}

// renamer returns the seed's renaming of a set of related program texts:
// within each identifier family, a seeded permutation of the names the texts
// use. salt tells the programs of one seed apart. The default seed renames
// nothing.
func renamer(seed, salt int64, srcs ...string) func(string) string {
	if seed == defaultSeed {
		return func(s string) string { return s }
	}
	rng := rand.New(rand.NewSource(seed*1000003 + salt))
	maps := make([]map[string]string, len(renamedFamilies))
	for f, re := range renamedFamilies {
		seen := map[string]bool{}
		var names []string
		for _, src := range srcs {
			for _, n := range re.FindAllString(src, -1) {
				if !seen[n] {
					seen[n] = true
					names = append(names, n)
				}
			}
		}
		sort.Strings(names)
		perm := rng.Perm(len(names))
		maps[f] = make(map[string]string, len(names))
		for i, n := range names {
			maps[f][n] = names[perm[i]]
		}
	}
	return func(src string) string {
		for f, re := range renamedFamilies {
			src = re.ReplaceAllStringFunc(src, func(n string) string { return maps[f][n] })
		}
		return src
	}
}

// suiteSources generates the seven suite programs, renamed for the seed.
func suiteSources(seed int64) (names, srcs []string) {
	for i, cfg := range bench.Suite() {
		src := bench.Generate(cfg)
		names = append(names, cfg.Name)
		srcs = append(srcs, renamer(seed, int64(i), src)(src))
	}
	return names, srcs
}

// load loads one program text through driver.Load and lists its queries
// through the registry. keyPrefix names the program in verdict keys.
func load(name, src, keyPrefix string, r *runCtx, parent int32) (*loaded, error) {
	id := r.tr.begin("driver.load", parent, name)
	prog, err := driver.Load(src)
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", name, err)
	}
	l := &loaded{name: name, src: src, prog: prog}
	for _, spec := range driver.Clients() {
		id := r.tr.begin("driver.queries", parent, name)
		qs := spec.Queries(prog)
		names := spec.ParamNames(prog)
		r.tr.end(id)
		g := &group{name: keyPrefix + spec.Name, prog: prog, spec: spec}
		for i, q := range qs {
			g.queries = append(g.queries, &query{
				prog: prog, spec: spec, idx: i, id: q.ID, wkey: q.Key,
				key:   keyPrefix + spec.Name + "/" + q.Key,
				names: names,
			})
		}
		l.groups = append(l.groups, g)
	}
	return l, nil
}

// loadSuite generates and loads the seven suite programs.
func loadSuite(seed int64, r *runCtx, parent int32) ([]*loaded, error) {
	var out []*loaded
	names, srcs := suiteSources(seed)
	for i, name := range names {
		l, err := load(name, srcs[i], name+"/", r, parent)
		if err != nil {
			return nil, err
		}
		out = append(out, l)
	}
	return out, nil
}

func groupsOf(ls []*loaded) []*group {
	var out []*group
	for _, l := range ls {
		out = append(out, l.groups...)
	}
	return out
}

// outcome is one resolved query of a pass.
type outcome struct {
	q   *query
	abs uset.Set // the proving abstraction, when proved
	ms  float64  // time to the verdict, measured at the caller
	// waitMS is the part of ms spent waiting on a timer rather than
	// computing: the server's coalescing window.
	waitMS float64
	start  time.Time
	v      verdict
	bad    bool // a failed operation: solve error, Failed status, or safety-net trip
}

func resultOutcome(ctx context.Context, q *query, res core.Result, err error, start time.Time, ms float64) outcome {
	o := outcome{q: q, abs: res.Abstraction, start: start, ms: ms, v: verdictOf(q.key, q.names, res)}
	o.bad = err != nil || res.Status == core.Failed || ctx.Err() != nil
	return o
}

// warmHooks connects one query's solve to a warm-store session.
type warmHooks struct {
	seed    []core.ParamCube
	onLearn func(parent int32, t lang.Trace, cubes []core.ParamCube)
}

// solveOne resolves one query with core.Solve on a fresh registry job, as
// `tracer -auto` does: the iteration cap and no wall timeout.
func solveOne(ctx context.Context, q *query, wh *warmHooks, r *runCtx, parent int32) (outcome, core.Result) {
	start := time.Now()
	id := r.tr.begin("driver.job_build", parent, q.key)
	job := q.spec.Job(q.prog, q.idx, beamK)
	r.tr.end(id)
	r.jobBuilds++
	opts := core.Options{MaxIters: maxIters, Context: ctx}
	sid := r.tr.begin("core.solve", parent, q.key)
	var pr core.Problem = job
	var w *tracedProblem
	if r.tr != nil {
		w = &tracedProblem{inner: job, tr: r.tr, parent: sid, query: q.key, lc: &r.lc}
		pr = w
	}
	if wh != nil {
		opts.Seed = wh.seed
		opts.OnLearn = func(_ int, _ uset.Set, t lang.Trace, cubes []core.ParamCube) {
			wh.onLearn(sid, t, cubes)
		}
	}
	res, err := core.Solve(pr, opts)
	r.tr.end(sid)
	r.iterations += res.Iterations
	r.clauses += res.Clauses
	if w != nil && w.fwd != res.Iterations {
		r.reconcileErr(fmt.Errorf("%s: the wrapper saw %d forward runs, core.Result.Iterations is %d",
			q.key, w.fwd, res.Iterations))
	}
	return resultOutcome(ctx, q, res, err, start, msSince(start)), res
}

// suiteSolve is the suite-solve workload: every registry query of the suite,
// cold and sequential, one core.Solve each.
type suiteSolve struct {
	seed  int64
	refs  *refStore
	progs []*loaded
}

// suiteFamily are the workloads that answer the suite's queries; they must
// agree on every verdict.
var suiteFamily = []string{"suite-solve", "suite-batch", "serve"}

func (w *suiteSolve) setup(r *runCtx, parent int32) error {
	var err error
	w.progs, err = loadSuite(w.seed, r, parent)
	return err
}

func (w *suiteSolve) pass(ctx context.Context, r *runCtx, parent int32) ([]outcome, error) {
	var out []outcome
	for _, g := range groupsOf(w.progs) {
		for _, q := range g.queries {
			o, _ := solveOne(ctx, q, nil, r, parent)
			out = append(out, o)
		}
	}
	return out, nil
}

// verify checks the proved abstractions and that the batch path reaches the
// same verdict on every query.
func (w *suiteSolve) verify(ctx context.Context, r *runCtx, got []outcome) error {
	if err := checkAllProved(got); err != nil {
		return err
	}
	return w.refs.crossCheck(w.seed, "suite-solve", suiteFamily, verdictsOf(got), nil, "suite-batch",
		func() ([]verdict, error) { return batchReference(ctx, groupsOf(w.progs), r.workers) })
}

func (w *suiteSolve) close()           {}
func (w *suiteSolve) sequential() bool { return true }
func (w *suiteSolve) warmup() bool     { return false }
func (w *suiteBatch) sequential() bool { return false }

// suiteBatch is the suite-batch workload: the same queries, one
// core.SolveBatch per (program, client) on nproc workers.
type suiteBatch struct {
	suiteSolve
}

func (w *suiteBatch) pass(ctx context.Context, r *runCtx, parent int32) ([]outcome, error) {
	var out []outcome
	for _, g := range groupsOf(w.progs) {
		res, err := solveGroup(ctx, g, r, parent)
		if err != nil {
			return nil, err
		}
		out = append(out, res...)
	}
	return out, nil
}

func (w *suiteBatch) verify(ctx context.Context, r *runCtx, got []outcome) error {
	if err := checkAllProved(got); err != nil {
		return err
	}
	return w.refs.crossCheck(w.seed, "suite-batch", suiteFamily, verdictsOf(got), nil, "", nil)
}

// solveGroup resolves one group with core.SolveBatch. Every query's verdict
// reaches the caller when the batch returns, so each is timed at the batch
// wall.
func solveGroup(ctx context.Context, g *group, r *runCtx, parent int32) ([]outcome, error) {
	start := time.Now()
	idx := make([]int, len(g.queries))
	keys := make([]string, len(g.queries))
	for i, q := range g.queries {
		idx[i], keys[i] = q.idx, q.key
	}
	id := r.tr.begin("driver.batch_build", parent, g.name)
	bp := g.spec.Batch(g.prog, idx, beamK)
	r.tr.end(id)
	sid := r.tr.begin("core.solve_batch", parent, g.name)
	var tb *tracedBatch
	if r.tr != nil {
		bp, tb = wrapBatch(bp, r.tr, sid, keys, &r.lc)
	}
	res, err := core.SolveBatch(bp, core.Options{MaxIters: maxIters, Workers: r.workers, Context: ctx})
	ms := msSince(start)
	r.tr.end(sid)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", g.name, err)
	}
	r.addBatch(res)
	if tb != nil {
		r.reconcileBatch(g.name, tb, res)
	}
	out := make([]outcome, len(g.queries))
	for i, q := range g.queries {
		out[i] = resultOutcome(ctx, q, res.Results[i], nil, start, ms)
	}
	return out, nil
}

// batchReference solves every group with core.SolveBatch, untimed and
// untraced: the reference the other solve paths must agree with.
func batchReference(ctx context.Context, groups []*group, workers int) ([]verdict, error) {
	ref := &runCtx{workers: workers}
	var vs []verdict
	for _, g := range groups {
		res, err := solveGroup(ctx, g, ref, noSpan)
		if err != nil {
			return nil, err
		}
		vs = append(vs, verdictsOf(res)...)
	}
	return vs, nil
}

func verdictsOf(outs []outcome) []verdict {
	out := make([]verdict, len(outs))
	for i, o := range outs {
		out[i] = o.v
	}
	return out
}

func checkAllProved(outs []outcome) error {
	for _, o := range outs {
		if o.v.Status == core.Proved.String() {
			if err := checkProved(o.q, o.abs); err != nil {
				return err
			}
		}
	}
	return nil
}
