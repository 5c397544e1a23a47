package main

import (
	"sync"
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// The wrappers below sit between core and the driver's problems in traced
// runs. Each records one span per call and counts what it forwards, and
// nothing else: core must not be able to tell a wrapped problem from the
// bare one. That means forwarding every optional interface core asserts
// (ObsFlusher, DeltaBatchProblem, DeltaRun) exactly when the wrapped value
// implements it, and handing the driver its own run back as a donor.

// layerCounts are the wrapper-side counters of a run's traced passes. Batch checks
// and backward passes run on several workers, so every field is atomic.
type layerCounts struct {
	forwardCalls  atomic.Int64 // Problem.Forward, RunForward, RunForwardFrom
	resumedCalls  atomic.Int64 // Forward outcomes with Reused > 0, RunForwardFrom calls
	forwardSteps  atomic.Int64
	reusedEdges   atomic.Int64
	checkCalls    atomic.Int64
	backwardCalls atomic.Int64
	cubes         atomic.Int64
}

// tracedProblem wraps one query's core.Problem for one core.Solve call.
type tracedProblem struct {
	inner  core.Problem
	tr     *tracer
	parent int32 // the core.solve span
	query  string
	lc     *layerCounts
	fwd    int // Forward calls within this solve, reconciled with Result.Iterations
}

func (w *tracedProblem) NumParams() int { return w.inner.NumParams() }

func (w *tracedProblem) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	id := w.tr.begin("dataflow.forward", w.parent, w.query)
	out := w.inner.Forward(b, p)
	w.tr.end(id)
	w.fwd++
	w.lc.forwardCalls.Add(1)
	w.lc.forwardSteps.Add(int64(out.Steps))
	w.lc.reusedEdges.Add(int64(out.Reused))
	if out.Reused > 0 {
		w.lc.resumedCalls.Add(1)
	}
	return out
}

func (w *tracedProblem) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	id := w.tr.begin("meta.backward", w.parent, w.query)
	cubes := w.inner.Backward(b, p, t)
	w.tr.end(id)
	w.lc.backwardCalls.Add(1)
	w.lc.cubes.Add(int64(len(cubes)))
	return cubes
}

func (w *tracedProblem) FlushObs(rec obs.Recorder) {
	if fl, ok := w.inner.(core.ObsFlusher); ok {
		fl.FlushObs(rec)
	}
}

// tracedBatch wraps a core.BatchProblem for one core.SolveBatch call. keys
// maps batch query indices to the span query ids.
type tracedBatch struct {
	inner  core.BatchProblem
	tr     *tracer
	parent int32 // the core.solve_batch span
	keys   []string
	lc     *layerCounts

	// Per-batch reconciliation counts.
	fresh  atomic.Int64 // RunForward + RunForwardFrom calls
	steps  atomic.Int64 // BatchRun.Steps calls
	checks atomic.Int64 // BatchRun.Check calls
	mu     sync.Mutex
	runs   []*tracedRun // every run handed to core
}

// tracedDeltaBatch is a tracedBatch whose inner problem is a
// core.DeltaBatchProblem. It is a separate type so that core's type
// assertion succeeds only when the wrapped problem can really resume.
type tracedDeltaBatch struct{ *tracedBatch }

// wrapBatch returns the wrapper core should see for bp.
func wrapBatch(bp core.BatchProblem, tr *tracer, parent int32, keys []string, lc *layerCounts) (core.BatchProblem, *tracedBatch) {
	w := &tracedBatch{inner: bp, tr: tr, parent: parent, keys: keys, lc: lc}
	if _, ok := bp.(core.DeltaBatchProblem); ok {
		return tracedDeltaBatch{w}, w
	}
	return w, w
}

func (w *tracedBatch) NumParams() int  { return w.inner.NumParams() }
func (w *tracedBatch) NumQueries() int { return w.inner.NumQueries() }

func (w *tracedBatch) FlushObs(rec obs.Recorder) {
	if fl, ok := w.inner.(core.ObsFlusher); ok {
		fl.FlushObs(rec)
	}
}

func (w *tracedBatch) RunForward(b *budget.Budget, p uset.Set) core.BatchRun {
	id := w.tr.begin("dataflow.forward", w.parent, "")
	run := w.inner.RunForward(b, p)
	w.tr.end(id)
	return w.adopt(run, false)
}

// RunForwardFrom unwraps the donor: the driver recognizes only its own run
// types as donors and silently solves cold for anything else.
func (d tracedDeltaBatch) RunForwardFrom(b *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	if tr, ok := donor.(interface{ unwrap() core.BatchRun }); ok {
		donor = tr.unwrap()
	}
	id := d.tr.begin("dataflow.forward", d.parent, "")
	run := d.inner.(core.DeltaBatchProblem).RunForwardFrom(b, p, donor, donorP)
	d.tr.end(id)
	return d.adopt(run, true)
}

// adopt wraps a fresh run; phase B of a batch round creates runs on several
// workers at once.
func (w *tracedBatch) adopt(run core.BatchRun, resumed bool) core.BatchRun {
	w.fresh.Add(1)
	w.lc.forwardCalls.Add(1)
	if resumed {
		w.lc.resumedCalls.Add(1)
	}
	r := &tracedRun{inner: run, b: w}
	w.mu.Lock()
	w.runs = append(w.runs, r)
	w.mu.Unlock()
	if _, ok := run.(core.DeltaRun); ok {
		return tracedDeltaRun{r}
	}
	return r
}

func (w *tracedBatch) Backward(b *budget.Budget, q int, p uset.Set, t lang.Trace) []core.ParamCube {
	id := w.tr.begin("meta.backward", w.parent, w.keys[q])
	cubes := w.inner.Backward(b, q, p, t)
	w.tr.end(id)
	w.lc.backwardCalls.Add(1)
	w.lc.cubes.Add(int64(len(cubes)))
	return cubes
}

// deltaResumes sums the final DeltaStats resumes of every run the batch
// created; core charges each run's cumulative count once, so the sum must
// equal BatchStats.DeltaResumes.
func (w *tracedBatch) deltaResumes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	total := 0
	for _, r := range w.runs {
		if dr, ok := r.inner.(core.DeltaRun); ok {
			n, _, _ := dr.DeltaStats()
			total += n
		}
	}
	return total
}

// tracedRun wraps one forward run. Checks are the lazy part of a batch
// forward run (the type-state client solves per site on first check).
type tracedRun struct {
	inner core.BatchRun
	b     *tracedBatch
}

func (r *tracedRun) unwrap() core.BatchRun { return r.inner }

func (r *tracedRun) Check(q int) (bool, lang.Trace) {
	id := r.b.tr.begin("dataflow.check", r.b.parent, r.b.keys[q])
	ok, t := r.inner.Check(q)
	r.b.tr.end(id)
	r.b.lc.checkCalls.Add(1)
	r.b.checks.Add(1)
	return ok, t
}

// Steps is called by core once per forward-run phase, right before it
// increments BatchStats.ForwardRuns.
func (r *tracedRun) Steps() int {
	r.b.steps.Add(1)
	return r.inner.Steps()
}

// tracedDeltaRun is a tracedRun whose inner run reports delta accounting.
type tracedDeltaRun struct{ *tracedRun }

func (r tracedDeltaRun) DeltaStats() (int, int, int) {
	return r.inner.(core.DeltaRun).DeltaStats()
}
