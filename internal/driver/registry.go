package driver

import (
	"sort"

	"tracer/internal/client"
	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/nullness"
	"tracer/internal/rhs"
	"tracer/internal/typestate"
)

// GenQuery is the client-independent view of one generated query: the layers
// above the driver (server, bench, warm) address queries by ID (positional,
// human-readable) or Key (position-independent, warm-store identity) and
// never need the client-specific payload.
type GenQuery struct {
	ID  string
	Key string
}

// ClientSpec describes one parametric analysis client to every layer above
// the driver. Each entry wraps a client.Spec with the generic job, batch, and
// query plumbing; adding a client means implementing client.Spec in its own
// package and appending one entry to the registry.
type ClientSpec struct {
	// Name is the wire name of the client ("typestate", "escape",
	// "nullness"); the warm store's Client values coincide with it.
	Name string
	// BenchName is the display name the bench tables print ("type-state").
	BenchName string

	// Queries lists the client's generated queries for a program, in a
	// deterministic order. The list is built once per program.
	Queries func(p *Program) []GenQuery
	// Job builds the core.Problem for query index i (into Queries' order).
	Job func(p *Program, i, k int) core.Problem
	// Batch builds the batch problem over the query indices idx.
	Batch func(p *Program, idx []int, k int) core.BatchProblem
	// ParamNames lists the client's parameter universe in parameter-index
	// order; the warm store names stored clauses with it.
	ParamNames func(p *Program) []string
	// WarmConfExtra returns the client-specific suffix of the warm store's
	// config signature ("" when the client has no whole-program knob
	// beyond k).
	WarmConfExtra func(p *Program) string

	// Jobs returns a builder of the jobs Job builds, except that they share
	// one literal universe and one WP cache per analysis-sharing key, as
	// Batch's backward jobs do; noDelta selects the cold forward executor.
	// The builder is safe for concurrent use.
	Jobs func(p *Program, k int, noDelta bool) func(i int) core.Problem
	// RHSQueries and RHSJob are Queries and Job over the tabulation
	// pipeline.
	RHSQueries func(p *RHSProgram) []GenQuery
	RHSJob     func(p *RHSProgram, i, k int, noDelta bool) RHSProblem
}

// clientSpecs is the registry, in stable presentation order.
var clientSpecs = []*ClientSpec{
	register("typestate", "type-state", typestate.Spec),
	register("escape", "thread-escape", escape.Spec),
	register("nullness", "null-deref", nullness.Spec),
}

// register wraps a client.Spec with the generic plumbing of both pipelines.
func register[D comparable](name, benchName string, spec *client.Spec[D]) *ClientSpec {
	return &ClientSpec{
		Name:      name,
		BenchName: benchName,
		Queries:   func(p *Program) []GenQuery { return genQueries(inlineQueries(p, spec)) },
		Job: func(p *Program, i, k int) core.Problem {
			q := inlineQueries(p, spec)[i]
			return client.NewJob(spec.New(&p.Universe, q.Goal), q.Goal, p.Low.G, q.At, k)
		},
		Batch: func(p *Program, idx []int, k int) core.BatchProblem {
			all := inlineQueries(p, spec)
			qs := make([]Query[int], len(idx))
			for n, i := range idx {
				qs[n] = all[i]
			}
			goals, nodes := split(qs)
			return client.NewBatch(spec, &p.Universe, p.Low.G, goals, nodes, k)
		},
		ParamNames: func(p *Program) []string { return spec.ParamNames(&p.Universe) },
		WarmConfExtra: func(p *Program) string {
			if spec.ConfExtra == nil {
				return ""
			}
			return spec.ConfExtra(&p.Universe)
		},
		Jobs: func(p *Program, k int, noDelta bool) func(i int) core.Problem {
			goals, nodes := split(inlineQueries(p, spec))
			mk, _ := spec.Jobs(&p.Universe, p.Low.G, goals, nodes, k)
			return func(i int) core.Problem {
				j := mk(i)
				j.NoDelta = noDelta
				return j
			}
		},
		RHSQueries: func(p *RHSProgram) []GenQuery { return genQueries(rhsQueries(p, spec)) },
		RHSJob: func(p *RHSProgram, i, k int, noDelta bool) RHSProblem {
			q := rhsQueries(p, spec)[i]
			j := newRHSJob(spec.New(&p.Universe, q.Goal), q.Goal, p.SP.G, q.At, k)
			j.NoDelta = noDelta
			return j
		},
	}
}

// inlineQueries and rhsQueries are spec's generated queries on either
// pipeline, built once per program.
func inlineQueries[D comparable](p *Program, spec *client.Spec[D]) []Query[int] {
	return generated(p.front, spec, p.occs, func(a, b int) bool { return a < b })
}

func rhsQueries[D comparable](p *RHSProgram, spec *client.Spec[D]) []Query[rhs.Point] {
	return generated(p.front, spec, p.occs, func(a, b rhs.Point) bool {
		return a.Method < b.Method || a.Method == b.Method && a.Node < b.Node
	})
}

// split separates inline queries into the goals and node lists a batch or a
// job builder takes.
func split(qs []Query[int]) ([]client.Goal, [][]int) {
	goals, nodes := make([]client.Goal, len(qs)), make([][]int, len(qs))
	for i, q := range qs {
		goals[i], nodes[i] = q.Goal, q.At
	}
	return goals, nodes
}

func genQueries[P any](qs []Query[P]) []GenQuery {
	out := make([]GenQuery, len(qs))
	for i, q := range qs {
		out[i] = GenQuery{ID: q.ID, Key: q.Key}
	}
	return out
}

// Clients returns the registered client specs in stable order. The slice is
// shared; callers must not mutate it.
func Clients() []*ClientSpec { return clientSpecs }

// ClientByName resolves a wire name, or nil when unknown.
func ClientByName(name string) *ClientSpec {
	for _, c := range clientSpecs {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// ClientNames lists the registered wire names, sorted — for error messages.
func ClientNames() []string {
	out := make([]string, 0, len(clientSpecs))
	for _, c := range clientSpecs {
		out = append(out, c.Name)
	}
	sort.Strings(out)
	return out
}
