package client

import (
	"sync"

	"tracer/internal/budget"
	"tracer/internal/core"
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/meta"
	"tracer/internal/obs"
	"tracer/internal/uset"
)

// Batch poses many goals on one CFG as a core.BatchProblem. Goals with
// equal analysis-sharing keys share each forward run. For a query-independent
// client (Spec.Share nil) every run is one eager solve that serves all
// goals; otherwise a run solves lazily, once per key, on the first check of
// a goal with that key (the paper's implementation tracks a separate
// abstract object per type-state site within one tabulation run; per-site
// solves over the same graph are equivalent).
//
// The batch is safe for the concurrent access pattern of the parallel
// scheduler: every forward run and every query's backward job owns a fresh
// analysis instance (interned state IDs are only meaningful within one
// instance, and interning mutates the instance). The formula kernel's
// literal universe is shared batch-wide, and the weakest-precondition cache
// per sharing key — the WP depends only on the analysis instance's
// configuration, which equal keys share — so workers reuse interned IDs,
// memoized theory bits, and WP DNFs instead of re-deriving them per query.
type Batch[D comparable] struct {
	spec      *Spec[D]
	u         *Universe
	g         *lang.CFG
	keys      []string
	jobs      []*Job[D]
	keyGoal   map[string]Goal // the first goal of each sharing key
	uni       *formula.Universe
	numParams int
}

var (
	_ core.DeltaBatchProblem = (*Batch[int])(nil)
	_ core.ObsFlusher        = (*Batch[int])(nil)
)

// NewBatch builds the batch problem over goals[i] checked at nodes[i].
func NewBatch[D comparable](spec *Spec[D], u *Universe, cfg *lang.CFG, goals []Goal, nodes [][]int, k int) *Batch[D] {
	mk, uni := spec.Jobs(u, cfg, goals, nodes, k)
	b := &Batch[D]{spec: spec, u: u, g: cfg, uni: uni, keyGoal: map[string]Goal{},
		numParams: spec.New(u, Goal{}).NumParams()}
	for i, g := range goals {
		key := spec.key(g)
		if _, ok := b.keyGoal[key]; !ok {
			b.keyGoal[key] = g
		}
		b.keys = append(b.keys, key)
		b.jobs = append(b.jobs, mk(i))
	}
	return b
}

// Jobs returns a builder of inline jobs posing goals[i] at nodes[i] that
// share one literal universe (also returned) and one WP cache per
// analysis-sharing key, the caches a batch's backward jobs share. The
// builder is safe for concurrent use.
func (s *Spec[D]) Jobs(u *Universe, cfg *lang.CFG, goals []Goal, nodes [][]int, k int) (func(i int) *Job[D], *formula.Universe) {
	uni := formula.NewUniverse(s.New(u, Goal{}).Theory())
	wpc := map[string]*meta.WPCache{}
	for _, g := range goals {
		if key := s.key(g); wpc[key] == nil {
			wpc[key] = meta.NewWPCache()
		}
	}
	return func(i int) *Job[D] {
		j := NewJob(s.New(u, goals[i]), goals[i], cfg, nodes[i], k)
		j.Uni, j.WPC = uni, wpc[s.key(goals[i])]
		return j
	}, uni
}

// FlushObs implements core.ObsFlusher for the shared literal universe.
func (b *Batch[D]) FlushObs(rec obs.Recorder) { meta.FlushUniverseObs(rec, b.uni) }

func (b *Batch[D]) NumParams() int  { return b.numParams }
func (b *Batch[D]) NumQueries() int { return len(b.jobs) }

// RunForward starts a run under p. The run captures the batch budget so
// lazy per-key solves (which happen inside Check, possibly rounds later)
// stay interruptible. On a budget trip the run holds a partial fixpoint;
// the scheduler discards that round's outcomes.
//
// Runs solve through a dataflow.Chain so they retain resumable state: the
// scheduler may later hand the run back as a donor (RunForwardFrom), turning
// the forward memo into a second-level cache over resumable executions.
func (b *Batch[D]) RunForward(bud *budget.Budget, p uset.Set) core.BatchRun {
	return b.start(bud, p, map[string]*cell[D]{})
}

// RunForwardFrom starts a run seeded with the donor's per-key chains: each
// key the new run solves resumes the donor's retained execution for that
// key (if any) instead of solving cold. Donor cells the donor itself
// inherited but never touched ride along, so a chain keeps serving its key
// across a whole lineage of donations until the key is asked again. The
// donor is consumed: its chains (and the analysis instances whose intern
// tables their memos are bound to) move to the new run.
func (b *Batch[D]) RunForwardFrom(bud *budget.Budget, p uset.Set, donor core.BatchRun, donorP uset.Set) core.BatchRun {
	d, ok := donor.(*run[D])
	if !ok {
		return b.RunForward(bud, p)
	}
	inherited := d.inherited
	if inherited == nil {
		inherited = map[string]*cell[D]{}
	}
	for key, c := range d.cells {
		if c.res != nil {
			inherited[key] = c // the donor's own cells are the more recent
		}
	}
	d.cells, d.inherited = nil, nil
	return b.start(bud, p, inherited)
}

func (b *Batch[D]) start(bud *budget.Budget, p uset.Set, inherited map[string]*cell[D]) *run[D] {
	r := &run[D]{b: b, bud: bud, p: p, inherited: inherited, cells: map[string]*cell[D]{}}
	if b.spec.Share == nil {
		r.solve("")
	}
	return r
}

// Backward delegates to the per-query job; distinct queries may run
// concurrently because each job owns its analysis instance, while the
// shared literal universe and WP caches are concurrency-safe by design.
func (b *Batch[D]) Backward(bud *budget.Budget, q int, p uset.Set, t lang.Trace) []core.ParamCube {
	return b.jobs[q].Backward(bud, p, t)
}

// cell holds one key's solve within a run. The once gate lets concurrent
// checks of same-key queries wait for a single solve; a, ch, and res are
// immutable after the gate opens.
type cell[D comparable] struct {
	once sync.Once
	a    Analysis[D]
	ch   *dataflow.Chain[D]
	res  *dataflow.Result[D]
}

type run[D comparable] struct {
	b   *Batch[D]
	bud *budget.Budget
	p   uset.Set
	// inherited maps keys to donor cells whose chain a solve for that key
	// resumes. Written only before the run is published to the scheduler;
	// each key's cell is consumed by exactly one once-gated solve.
	inherited map[string]*cell[D]

	mu    sync.Mutex // guards cells, steps, and the delta counters
	cells map[string]*cell[D]
	steps int

	resumes, reused, invalid int
}

func (r *run[D]) solve(key string) *cell[D] {
	r.mu.Lock()
	c := r.cells[key]
	if c == nil {
		c = &cell[D]{}
		r.cells[key] = c
	}
	r.mu.Unlock()
	c.once.Do(func() {
		if dc := r.inherited[key]; dc != nil && dc.ch != nil {
			c.a, c.ch = dc.a, dc.ch
			dc.ch, dc.res = nil, nil
		} else {
			c.a = r.b.spec.New(r.b.u, r.b.keyGoal[key])
			c.ch = dataflow.NewChain[D](r.b.g)
		}
		c.res = c.ch.Solve(r.p, c.a.Initial(), c.a.TransferDep(r.p), r.bud)
		resumed, reused, invalid := c.ch.Stats()
		r.mu.Lock()
		r.steps += c.res.Steps
		if resumed {
			r.resumes++
		}
		r.reused += reused
		r.invalid += invalid
		r.mu.Unlock()
	})
	return c
}

// DeltaStats implements core.DeltaRun; lazy per-key solves keep accruing, so
// the counts are cumulative like Steps.
func (r *run[D]) DeltaStats() (int, int, int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.resumes, r.reused, r.invalid
}

// Check is safe for concurrent calls: same-key queries share one solve
// through the cell's once gate, and a solved result and its analysis are
// read-only once the gate opens.
func (r *run[D]) Check(q int) (bool, lang.Trace) {
	job := r.b.jobs[q]
	c := r.solve(r.b.keys[q])
	node, bad, found := FindFailure(c.a, job.Goal, c.res, job.Nodes)
	if !found {
		return true, nil
	}
	return false, c.res.Witness(node, bad)
}

func (r *run[D]) Steps() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.steps
}
