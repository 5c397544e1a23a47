package client

import (
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Query is the engine-independent half of a job: one goal posed to one
// analysis instance, with the backward meta-analysis, outcome accounting,
// and telemetry every forward engine shares. K is the beam width of the
// meta-analysis's under-approximation (k in §4.1; the paper uses k=5 for the
// evaluation and k=1 in the worked examples); K ≤ 0 disables it.
type Query[D comparable] struct {
	A    Analysis[D]
	Goal Goal
	K    int

	// NoDelta disables the delta-incremental forward path, forcing every
	// CEGAR iteration to solve cold. The differential suites use it as the
	// reference executor.
	NoDelta bool

	// Uni and WPC, when set, are the interned literal universe and the
	// weakest-precondition cache shared across every job of the same
	// analysis-sharing key — across CEGAR iterations and, in the batch
	// driver, across the backward jobs of all its queries (both are
	// concurrency-safe). Client fills them lazily when nil.
	Uni *formula.Universe
	WPC *meta.WPCache

	// Delta accounting since the last FlushObs, mirroring the chain's Stats.
	deltaResumes, deltaReused, deltaInvalid atomic.Int64
}

// NumParams returns N for the abstraction family 2^N.
func (q *Query[D]) NumParams() int { return q.A.NumParams() }

// ParamName names parameter i.
func (q *Query[D]) ParamName(i int) string { return q.A.ParamName(i) }

// delta records one incremental solve's chain statistics and returns the
// path edges it reused (zero for a cold run), for Outcome.Reused.
func (q *Query[D]) delta(resumed bool, reused, invalid int) int {
	if !resumed {
		return 0
	}
	q.deltaResumes.Add(1)
	q.deltaReused.Add(int64(reused))
	q.deltaInvalid.Add(int64(invalid))
	return reused
}

// Outcome checks the goal against a solved forward run of steps steps. fail
// returns the witness trace of the first violating state in discovery order,
// or false when there is none. A budget trip mid-solve yields an unproved
// partial outcome: a partial fixpoint's "no failure found" is not a proof.
func (q *Query[D]) Outcome(b *budget.Budget, steps int, fail func() (lang.Trace, bool)) core.Outcome {
	if b.Tripped() {
		return core.Outcome{Steps: steps}
	}
	if t, ok := fail(); ok {
		return core.Outcome{Trace: t, Steps: steps}
	}
	return core.Outcome{Proved: true, Steps: steps}
}

// Client builds the meta-analysis client for abstraction p. Weakest
// preconditions do not depend on p, so all clients of this job share one
// memoization cache (and one literal universe).
func (q *Query[D]) Client(p uset.Set) *meta.Client[D] {
	if q.Uni == nil {
		q.Uni = formula.NewUniverse(q.A.Theory())
	}
	if q.WPC == nil {
		q.WPC = meta.NewWPCache()
	}
	return &meta.Client[D]{
		WP:    q.A.WP,
		U:     q.Uni,
		Eval:  func(l formula.Lit, d D) bool { return q.A.EvalLit(l, p, d) },
		K:     q.K,
		Cache: q.WPC,
	}
}

// FlushObs implements core.ObsFlusher: it reports the formula.* counters of
// the job's literal universe, the meta.* counters of its WP cache, and the
// rhs.* delta counters of the incremental forward chain.
func (q *Query[D]) FlushObs(rec obs.Recorder) {
	meta.FlushUniverseObs(rec, q.Uni)
	meta.FlushWPObs(rec, q.WPC)
	obs.FlushDelta(rec, &q.deltaResumes, &q.deltaReused, &q.deltaInvalid)
}

// Backward runs the meta-analysis over the counterexample trace and
// extracts the parameter cubes of abstractions guaranteed to fail. A budget
// trip mid-walk yields nil (a truncated condition is not sound).
func (q *Query[D]) Backward(b *budget.Budget, p uset.Set, t lang.Trace) []core.ParamCube {
	dI := q.A.Initial()
	states := dataflow.StatesAlong(t, dI, q.A.Transfer(p))
	c := q.Client(p)
	c.Budget = b
	dnf := meta.Run(c, t, states, q.A.NotQ(q.Goal))
	if b.Tripped() {
		return nil
	}
	return q.Cubes(dnf, dI)
}

// Cubes projects a failure-condition DNF onto parameter cubes: each
// disjunct whose state literals hold at dI describes the abstractions
// {p' | p' ⊇ Pos, p' ∩ Neg = ∅} that inevitably fail (line 14 of Alg 1).
func (q *Query[D]) Cubes(dnf formula.DNF, dI D) []core.ParamCube {
	var out []core.ParamCube
	for _, conj := range dnf {
		var pos, neg uset.Set
		ok := true
		for _, l := range conj.Lits() {
			if id, on, isParam := q.A.Param(l); isParam {
				if on != l.Neg {
					pos = pos.Add(id)
				} else {
					neg = neg.Add(id)
				}
				continue
			}
			// State literal: its truth at dI is independent of p'.
			if !q.A.EvalLit(l, nil, dI) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, core.ParamCube{Pos: pos, Neg: neg})
		}
	}
	return out
}

// Job poses one query on one CFG as a core.Problem, solved by the inline
// forward engine (dataflow). Nodes are the CFG nodes the goal is checked at:
// a source-level program point may correspond to several nodes after
// inlining.
type Job[D comparable] struct {
	Query[D]
	G     *lang.CFG
	Nodes []int

	// chain is the resumable forward solver retained across CEGAR
	// iterations, checked out like fwdScratch. It is stored back only after
	// a solve returns normally (a trip poisons its retained run internally;
	// a panic abandons the chain entirely, so the next solve starts cold).
	chain atomic.Pointer[dataflow.Chain[D]]
	// fwdHint carries the discovery count of the previous cold solve as the
	// next solve's map-capacity hint; consecutive CEGAR iterations re-solve
	// the same CFG and discover similar state counts.
	fwdHint atomic.Int64
	// fwdScratch is the reusable solver state handed to consecutive cold
	// solves, checked out with an atomic swap for the duration of a solve so
	// concurrent Forward calls on one job fall back to fresh allocation
	// instead of racing.
	fwdScratch atomic.Pointer[dataflow.Scratch[D]]
}

var (
	_ core.Problem    = (*Job[int])(nil)
	_ core.ObsFlusher = (*Job[int])(nil)
)

// NewJob poses goal g to analysis a at the given nodes of CFG cfg.
func NewJob[D comparable](a Analysis[D], g Goal, cfg *lang.CFG, nodes []int, k int) *Job[D] {
	return &Job[D]{Query: Query[D]{A: a, Goal: g, K: k}, G: cfg, Nodes: nodes}
}

// Forward runs the forward analysis under abstraction p and checks the goal
// at every node it covers, returning a witness trace for a failing state.
func (j *Job[D]) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	if j.NoDelta {
		sc := j.fwdScratch.Swap(nil)
		if sc == nil {
			sc = &dataflow.Scratch[D]{}
		}
		// The scratch is returned only after the outcome (including any
		// witness walk over the result) is fully extracted.
		defer j.fwdScratch.Store(sc)
		res := dataflow.SolveScratch(j.G, j.A.Initial(), j.A.Transfer(p), b, int(j.fwdHint.Load()), sc)
		j.fwdHint.Store(int64(res.Steps))
		return j.outcome(b, res)
	}
	ch := j.chain.Swap(nil)
	if ch == nil {
		ch = dataflow.NewChain[D](j.G)
	}
	res := ch.Solve(p, j.A.Initial(), j.A.TransferDep(p), b)
	reused := j.delta(ch.Stats())
	out := j.outcome(b, res)
	out.Reused = reused
	j.chain.Store(ch)
	return out
}

// outcome checks the goal against a forward run.
func (j *Job[D]) outcome(b *budget.Budget, res *dataflow.Result[D]) core.Outcome {
	return j.Outcome(b, res.Steps, func() (lang.Trace, bool) {
		node, bad, ok := FindFailure(j.A, j.Goal, res, j.Nodes)
		if !ok {
			return nil, false
		}
		return res.Witness(node, bad), true
	})
}

// FindFailure scans the nodes of a run solved by analysis a for a state
// violating g, returning the first one in discovery order. Discovery order
// is a pure function of the CFG, the abstraction, and the initial state —
// independent of the analysis instance's intern history — so the choice is
// stable between a fresh cold run and a delta resume on a retained
// analysis, and between a per-query job and a batch run.
func FindFailure[D comparable](a Analysis[D], g Goal, res *dataflow.Result[D], nodes []int) (node int, bad D, ok bool) {
	for _, n := range nodes {
		for _, d := range res.States(n) {
			if !a.Holds(g, d) {
				return n, d, true
			}
		}
	}
	return 0, bad, false
}
