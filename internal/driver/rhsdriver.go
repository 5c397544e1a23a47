package driver

import (
	"sync/atomic"

	"tracer/internal/budget"
	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/obs"
	"tracer/internal/pointsto"
	"tracer/internal/rhs"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// RHSProgram is a program prepared with the summary-based tabulation
// backend instead of the inlining lowering. It supports recursive call
// graphs; everything else — the front end, query generation, the backward
// meta-analysis, and TRACER — is shared with the inlining pipeline, since
// both produce flat counterexample traces over the same atoms.
type RHSProgram struct {
	*front
	SP *rhs.Program

	occs []occurrence[rhs.Point]
}

// LoadRHS parses src and prepares the tabulation pipeline.
func LoadRHS(src string) (*RHSProgram, error) {
	prog, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		return nil, err
	}
	sp, err := rhs.FromIR(prog, pt)
	if err != nil {
		return nil, err
	}
	p := &RHSProgram{SP: sp}
	for _, cs := range sp.Calls {
		if IsApp(cs.Method) {
			p.occs = append(p.occs, occurrence[rhs.Point]{cs.Method, cs.Stmt, client.Occurrence{Call: true, Var: cs.Recv}, cs.At})
		}
	}
	for _, fa := range sp.Accesses {
		if IsApp(fa.Method) {
			p.occs = append(p.occs, occurrence[rhs.Point]{fa.Method, fa.Stmt, client.Occurrence{Var: fa.Base}, fa.At})
		}
	}
	p.front = newFront(prog, pt, sp.G.AtomsCFG(), p.occs)
	return p, nil
}

// RHSProblem is a tabulation job of any client.
type RHSProblem interface {
	core.Problem
	// ParamName names parameter i.
	ParamName(i int) string
	// Observe routes the tabulation solver's per-run counters and timings
	// (see rhs.SolveObs) to rec.
	Observe(rec obs.Recorder)
}

// rhsJob poses one goal against the tabulation backend. The backward
// meta-analysis, outcome accounting, and telemetry are the inline job's
// (client.Query): both backends produce flat traces over the same atoms.
type rhsJob[D comparable] struct {
	client.Query[D]
	g      *rhs.Graph
	points []rhs.Point
	rec    obs.Recorder

	chain atomic.Pointer[rhs.Chain[D]]
}

var _ core.ObsFlusher = (*rhsJob[int])(nil)

func newRHSJob[D comparable](a client.Analysis[D], goal client.Goal, g *rhs.Graph, points []rhs.Point, k int) *rhsJob[D] {
	return &rhsJob[D]{Query: client.Query[D]{A: a, Goal: goal, K: k}, g: g, points: points}
}

func (j *rhsJob[D]) Observe(rec obs.Recorder) { j.rec = rec }

// Forward solves the supergraph under abstraction p, resuming the job's
// retained tabulation across CEGAR iterations unless NoDelta is set. The
// chain is checked out for the duration of the solve (a panic abandons it;
// the next iteration starts a fresh one).
func (j *rhsJob[D]) Forward(b *budget.Budget, p uset.Set) core.Outcome {
	if j.NoDelta {
		return j.outcome(b, rhs.SolveBudget(j.g, j.A.Initial(), j.A.Transfer(p), j.rec, b))
	}
	ch := j.chain.Swap(nil)
	if ch == nil {
		ch = rhs.NewChain[D](j.g)
	}
	res := ch.Solve(p, j.A.Initial(), j.A.TransferDep(p), j.rec, b)
	out := j.outcome(b, res)
	// The chain records its own rhs.* delta counters to rec.
	if resumed, reused, _ := ch.Stats(); resumed {
		out.Reused = reused
	}
	j.chain.Store(ch)
	return out
}

// outcome scans the query points for a violating fact, picking the first
// one in tabulation (discovery) order — a pure function of the supergraph
// and the abstraction, so the choice is stable between cold and
// delta-incremental solves.
func (j *rhsJob[D]) outcome(b *budget.Budget, res *rhs.Result[D]) core.Outcome {
	return j.Outcome(b, res.Steps, func() (lang.Trace, bool) {
		for _, pt := range j.points {
			for _, d := range res.States(pt.Method, pt.Node) {
				if !j.A.Holds(j.Goal, d) {
					return res.Witness(pt.Method, pt.Node, d), true
				}
			}
		}
		return nil, false
	})
}

// ExplicitJobs builds jobs for the program's explicit query statements:
// "query name local(v)" and, against prop, "query name state(v: ...)"
// (keyed "name@site" per may-site like the inlining driver).
func (p *RHSProgram) ExplicitJobs(prop *typestate.Property, k int) (map[string]RHSProblem, error) {
	ts, esc, err := explicitGoals(p.front, p.SP.Queries, prop, func(q rhs.ExplicitQuery) (ir.ExplicitQuery, rhs.Point) {
		return ir.ExplicitQuery{Name: q.Name, Kind: q.Kind, Var: q.Var, States: q.States}, q.At
	})
	if err != nil {
		return nil, err
	}
	out := map[string]RHSProblem{}
	tsSpec := typestate.NewSpec(prop)
	for name, q := range ts {
		out[name] = newRHSJob(tsSpec.New(&p.Universe, q.Goal), q.Goal, p.SP.G, q.At, k)
	}
	for name, q := range esc {
		out[name] = newRHSJob(escape.Spec.New(&p.Universe, q.Goal), q.Goal, p.SP.G, q.At, k)
	}
	return out, nil
}
