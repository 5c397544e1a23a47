package oracle

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/oracle/gen"
	"tracer/internal/uset"
)

// FuzzOptions configures a fuzz run. Case i derives its rng from Seed+i, so
// any reported case replays in isolation from its own seed.
type FuzzOptions struct {
	Seed int64
	N    int
	// Meta additionally runs the metamorphic checks (permutation, padding,
	// batch invariance) on every case; it multiplies the per-case cost.
	Meta bool
}

// Discrepancy is one confirmed oracle violation: the case (with its program
// already minimized by the deterministic shrinker) and the violated
// properties. Replay with the recorded seed, or rebuild the case from its
// rendering.
type Discrepancy struct {
	Client     string
	Seed       int64
	Case       string
	Violations []string
}

func (d Discrepancy) String() string {
	s := fmt.Sprintf("%s seed=%d: %s", d.Client, d.Seed, d.Case)
	for _, v := range d.Violations {
		s += "\n  - " + v
	}
	return s
}

// Fuzz runs o.N seeded cases of the named client through the oracle,
// shrinking and reporting every violating program. It panics for a client
// without an oracle family.
func Fuzz(name string, o FuzzOptions) []Discrepancy {
	f := families[name]
	if f == nil {
		panic("oracle: no case family for client " + name)
	}
	var out []Discrepancy
	for i := 0; i < o.N; i++ {
		seed := o.Seed + int64(i)
		c := f.random(rand.New(rand.NewSource(seed)))
		c.Client = name
		if len(f.check(c, o.Meta)) == 0 {
			continue
		}
		c.Prog = gen.Shrink(c.Prog, func(p lang.Prog) bool {
			cc := c
			cc.Prog = p
			return len(f.check(cc, o.Meta)) > 0
		})
		out = append(out, Discrepancy{
			Client: name, Seed: seed, Case: c.String(),
			Violations: f.check(c, o.Meta),
		})
	}
	return out
}

// checkWarmSeed replays the warm-start contract (internal/warm) at the core
// level: a cold solve records its accepted blocking cubes via OnLearn, the
// cubes round-trip through JSON exactly like the disk store's clause shape,
// and a second solve seeded with them must reproduce the verdict and
// abstraction — in at most one CEGAR iteration, since the seeds already
// block every refuted candidate the cold run saw.
func checkWarmSeed(mk func() core.Problem) []string {
	var cubes []core.ParamCube
	cold, err := core.Solve(mk(), core.Options{
		OnLearn: func(_ int, _ uset.Set, _ lang.Trace, cs []core.ParamCube) {
			cubes = append(cubes, cs...)
		},
	})
	if err != nil {
		return []string{fmt.Sprintf("warm seed: cold solve failed: %v", err)}
	}
	if cold.Status != core.Proved && cold.Status != core.Impossible {
		return nil // no verdict to warm-start toward
	}
	type wire struct {
		Pos, Neg []int
	}
	ws := make([]wire, len(cubes))
	for i, c := range cubes {
		ws[i] = wire{Pos: c.Pos.Elems(), Neg: c.Neg.Elems()}
	}
	data, err := json.Marshal(ws)
	if err != nil {
		return []string{fmt.Sprintf("warm seed: marshal: %v", err)}
	}
	var back []wire
	if err := json.Unmarshal(data, &back); err != nil {
		return []string{fmt.Sprintf("warm seed: unmarshal: %v", err)}
	}
	seed := make([]core.ParamCube, len(back))
	for i, w := range back {
		seed[i] = core.ParamCube{Pos: uset.New(w.Pos...), Neg: uset.New(w.Neg...)}
	}
	warm, err := core.Solve(mk(), core.Options{Seed: seed})
	if err != nil {
		return []string{fmt.Sprintf("warm seed: warm solve failed: %v", err)}
	}
	var v []string
	if warm.Status != cold.Status || !warm.Abstraction.Equal(cold.Abstraction) {
		v = append(v, fmt.Sprintf("warm seed changed the resolution: cold %s/%s, warm %s/%s",
			cold.Status, cold.Abstraction, warm.Status, warm.Abstraction))
	}
	if warm.Iterations > 1 {
		v = append(v, fmt.Sprintf("warm solve took %d iterations (want ≤1 with every cold clause seeded)", warm.Iterations))
	}
	return v
}

// rotation maps each name to the next one, cyclically — a fixed non-trivial
// permutation.
func rotation(names []string) map[string]string {
	m := make(map[string]string, len(names))
	for i, n := range names {
		m[n] = names[(i+1)%len(names)]
	}
	return m
}

// compareSolve solves the variant problem and reports a divergence from the
// base resolution: the verdict and, when proved, the cost must match.
func compareSolve(base core.Result, variant core.Problem, what string) string {
	res, _ := core.Solve(variant, core.Options{})
	if res.Status != base.Status {
		return fmt.Sprintf("%s changed the verdict: %s vs %s", what, base.Status, res.Status)
	}
	if res.Status == core.Proved && res.Abstraction.Len() != base.Abstraction.Len() {
		return fmt.Sprintf("%s changed the minimum cost: %d vs %d",
			what, base.Abstraction.Len(), res.Abstraction.Len())
	}
	return ""
}

// compareDelta solves the cold-executor variant of a query (NoDelta set on
// the job) and reports any divergence from the base solve, which ran with
// the delta-incremental forward engine. The single-query delta path replays
// step-identically, so the whole resolution — verdict, abstraction,
// iteration count, learned clauses, and forward steps — must match.
func compareDelta(base core.Result, cold core.Problem) string {
	res, _ := core.Solve(cold, core.Options{})
	if res.Status != base.Status || !res.Abstraction.Equal(base.Abstraction) {
		return fmt.Sprintf("delta disable changed the resolution: %s/%s vs %s/%s",
			base.Status, base.Abstraction, res.Status, res.Abstraction)
	}
	if res.Iterations != base.Iterations || res.Clauses != base.Clauses || res.ForwardSteps != base.ForwardSteps {
		return fmt.Sprintf("delta disable changed the trajectory: %d iters / %d clauses / %d steps vs %d / %d / %d",
			base.Iterations, base.Clauses, base.ForwardSteps, res.Iterations, res.Clauses, res.ForwardSteps)
	}
	return ""
}

// batchVariants is the worker-count × forward-cache × delta-engine grid
// every batch metamorphic check sweeps. -1 disables the cross-round memo;
// NoDelta forces every forward run to solve cold.
var batchVariants = []core.Options{
	{Workers: 1},
	{Workers: 4},
	{Workers: 4, FwdCacheSize: -1},
	{Workers: 4, NoDelta: true},
}

// compareBatch requires each batch query to resolve exactly like its solo
// solve: same verdict and same cost (the minimum abstraction itself is also
// unique-cost-deterministic, so compare it outright).
func compareBatch(solo []core.Result, batch *core.BatchResult, opts core.Options) []string {
	var v []string
	for q, want := range solo {
		got := batch.Results[q]
		if got.Status != want.Status || !got.Abstraction.Equal(want.Abstraction) {
			v = append(v, fmt.Sprintf("batch (workers=%d cache=%d) query %d resolved %s/%s, solo %s/%s",
				opts.Workers, opts.FwdCacheSize, q,
				got.Status, got.Abstraction, want.Status, want.Abstraction))
		}
	}
	return v
}
