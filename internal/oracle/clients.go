package oracle

import (
	"fmt"
	"math/rand"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/lang"
	"tracer/internal/nullness"
	"tracer/internal/oracle/gen"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// The generated problems draw from FIXED vocabularies, independent of the
// program text: parameter indices stay stable when the shrinker deletes
// atoms, and query subjects (the tracked site, the queried local) are
// always interned. Padding variants append fresh never-referenced names.
var (
	tsVars    = []string{"w", "x", "y", "z"}
	tsSites   = []string{"h", "g"} // h is the tracked site
	tsTracked = "h"
	escLocals = []string{"u", "v", "w"}
	escFields = []string{"f", "g"}
	escSites  = []string{"h1", "h2", "h3"}
	// tsMethods is the union of all generated properties' methods, sorted;
	// a program may invoke methods its property ignores (they are identity).
	tsMethods = []string{"bind", "close", "connect", "hasNext", "next", "open", "send"}
)

// tsProps lists the generated type-state properties by name; the name is
// stored in the case (rather than the *Property) so cases print and replay.
var tsProps = []string{"file", "socket", "iterator"}

func tsProp(name string) *typestate.Property {
	switch name {
	case "file":
		return typestate.FileProperty()
	case "socket":
		return typestate.SocketProperty()
	case "iterator":
		return typestate.IteratorProperty()
	}
	panic("oracle: unknown typestate property " + name)
}

// kChoices are the beam widths a case draws from (k of §4.1; 0 disables
// under-approximation).
var kChoices = []int{0, 1, 2, 5}

// Case is one generated problem of one client: a program over the client's
// fixed vocabulary, the goal (for type-state, the property named Prop), and
// the beam width. Pad appends that many never-referenced names to the
// parameter universe (the monotone-padding metamorphic variant).
type Case struct {
	Client string
	Prop   string
	Prog   lang.Prog
	Goal   client.Goal
	K      int
	Pad    int
}

func (c Case) String() string {
	q := "v=" + c.Goal.Subject
	if c.Prop != "" {
		q = fmt.Sprintf("prop=%s want=%v", c.Prop, c.Goal.Want.Elems())
	}
	return fmt.Sprintf("%s %s k=%d pad=%d prog: %s", c.Client, q, c.K, c.Pad, c.Prog)
}

// padded appends n never-referenced names to names.
func padded(names []string, prefix string, n int) []string {
	for i := 0; i < n; i++ {
		names = append(names[:len(names):len(names)], fmt.Sprintf("%s%d", prefix, i))
	}
	return names
}

// family is one client's oracle vocabulary over the generic client
// contract: everything else — jobs, batches, and every check — is shared.
type family[D comparable] struct {
	spec     func(c Case) *client.Spec[D]
	universe func(c Case) *client.Universe
	pool     gen.Universe
	// draw fills the client-specific fields of a case from rng, drawing the
	// program from prog at the position the client's sequence expects.
	draw func(rng *rand.Rand, prog func() lang.Prog) Case
	// permute renames the case's names consistently, naming the renaming.
	permute func(c Case) (Case, string)
	// goals lists the goals a batch check poses on the case's program.
	goals func(c Case) []client.Goal
}

// families are the oracle's clients, by registry name.
var families = map[string]interface {
	random(rng *rand.Rand) Case
	check(c Case, meta bool) []string
}{
	"typestate": family[typestate.State]{
		spec: func(c Case) *client.Spec[typestate.State] { return typestate.NewSpec(tsProp(c.Prop)) },
		universe: func(c Case) *client.Universe {
			return &client.Universe{Locals: padded(tsVars, "pad", c.Pad)}
		},
		pool: gen.Universe{Vars: tsVars, Sites: tsSites, Fields: []string{"f"}, Globals: []string{"G"}, Methods: tsMethods},
		draw: func(rng *rand.Rand, prog func() lang.Prog) Case {
			prop := tsProps[rng.Intn(len(tsProps))]
			ns := len(tsProp(prop).States)
			want := uset.Bits(1 + rng.Intn(1<<ns-1)) // any nonempty subset
			return Case{Prop: prop, Prog: prog(), Goal: client.Goal{Subject: tsTracked, Want: want}}
		},
		permute: func(c Case) (Case, string) {
			c.Prog = gen.Rename(c.Prog, rotation(tsVars), nil)
			return c, "variable permutation"
		},
		goals: func(c Case) []client.Goal {
			prop := tsProp(c.Prop)
			full := uset.Bits(1<<len(prop.States) - 1)
			var out []client.Goal
			for _, w := range []uset.Bits{c.Goal.Want, full, uset.Bits(0).Add(prop.Init)} {
				out = append(out, client.Goal{Subject: tsTracked, Want: w})
			}
			return out
		},
	},
	"escape": family[escape.State]{
		spec: func(Case) *client.Spec[escape.State] { return escape.Spec },
		universe: func(c Case) *client.Universe {
			return &client.Universe{Locals: escLocals, Fields: escFields, Sites: padded(escSites, "hpad", c.Pad)}
		},
		pool:    escPool,
		draw:    drawLocal,
		permute: permuteLocal,
		goals:   localGoals,
	},
	// The nullness cases share the escape vocabulary: locals and fields are
	// exactly the nullness cell universe, and both clients read the same
	// atom structure, so the generator is shared unchanged.
	"nullness": family[nullness.State]{
		spec: func(Case) *client.Spec[nullness.State] { return nullness.Spec },
		universe: func(c Case) *client.Universe {
			return &client.Universe{Locals: padded(escLocals, "pad", c.Pad), Fields: escFields}
		},
		pool:    escPool,
		draw:    drawLocal,
		permute: permuteLocal,
		goals:   localGoals,
	},
}

var escPool = gen.Universe{Vars: escLocals, Sites: escSites, Fields: escFields, Globals: []string{"G"}, Methods: []string{"m"}}

func drawLocal(rng *rand.Rand, prog func() lang.Prog) Case {
	p := prog()
	return Case{Prog: p, Goal: client.Goal{Subject: escLocals[rng.Intn(len(escLocals))]}}
}

// permuteLocal renames both name spaces the generator renames: locals (the
// queried variable) and allocation sites.
func permuteLocal(c Case) (Case, string) {
	vperm := rotation(escLocals)
	c.Prog = gen.Rename(c.Prog, vperm, rotation(escSites))
	c.Goal.Subject = vperm[c.Goal.Subject]
	return c, "local/site permutation"
}

// localGoals poses one query per local.
func localGoals(Case) []client.Goal {
	out := make([]client.Goal, len(escLocals))
	for i, v := range escLocals {
		out[i] = client.Goal{Subject: v}
	}
	return out
}

// random draws a case from the rng. The same rng sequence always yields the
// same case.
func (f family[D]) random(rng *rand.Rand) Case {
	pool := gen.Pool(f.pool)
	c := f.draw(rng, func() lang.Prog { return gen.Program(rng, pool, gen.DefaultConfig(3+rng.Intn(8))) })
	c.K = kChoices[rng.Intn(len(kChoices))]
	return c
}

// job builds a fresh core.Problem for the case. Every call returns an
// independent instance (interning mutates an analysis, so instances must
// not be shared between a truth enumeration and a solve).
func (f family[D]) job(c Case) *client.Job[D] {
	g := lang.BuildCFG(c.Prog)
	return client.NewJob(f.spec(c).New(f.universe(c), c.Goal), c.Goal, g, []int{g.Exit}, c.K)
}

// check verifies one case: the three oracle properties, and (with meta)
// permutation invariance, monotone padding, delta-vs-cold trajectory
// identity, batch worker/cache invariance, and warm-seed replay.
func (f family[D]) check(c Case, meta bool) []string {
	v := CheckSolve(func() core.Problem { return f.job(c) }, core.Options{})
	if !meta {
		return v
	}
	base, _ := core.Solve(f.job(c), core.Options{})

	// Permutation invariance: consistently renaming names must not change
	// the verdict or the minimum cost (|p| is permutation-invariant).
	renamed, what := f.permute(c)
	if d := compareSolve(base, f.job(renamed), what); d != "" {
		v = append(v, d)
	}

	// Monotone padding: never-referenced parameters cannot change what is
	// provable or how much the cheapest proof costs.
	pad := c
	pad.Pad = 2
	if d := compareSolve(base, f.job(pad), "parameter padding"); d != "" {
		v = append(v, d)
	}

	cold := f.job(c)
	cold.NoDelta = true
	if d := compareDelta(base, cold); d != "" {
		v = append(v, d)
	}
	v = append(v, f.checkBatch(c)...)
	v = append(v, checkWarmSeed(func() core.Problem { return f.job(c) })...)
	return v
}

// checkBatch cross-checks the production batch problem under SolveBatch
// against per-query Solve on the family's batch goals, across the
// worker/cache/delta grid.
func (f family[D]) checkBatch(c Case) []string {
	goals := f.goals(c)
	solo := make([]core.Result, len(goals))
	for i, g := range goals {
		cc := c
		cc.Goal = g
		solo[i], _ = core.Solve(f.job(cc), core.Options{})
	}
	cfg := lang.BuildCFG(c.Prog)
	nodes := make([][]int, len(goals))
	for i := range nodes {
		nodes[i] = []int{cfg.Exit}
	}
	var v []string
	for _, opts := range batchVariants {
		res, err := core.SolveBatch(client.NewBatch(f.spec(c), f.universe(c), cfg, goals, nodes, c.K), opts)
		if err != nil {
			v = append(v, fmt.Sprintf("batch (workers=%d cache=%d) failed: %v", opts.Workers, opts.FwdCacheSize, err))
			continue
		}
		v = append(v, compareBatch(solo, res, opts)...)
	}
	return v
}
