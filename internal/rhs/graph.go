// Package rhs implements a summary-based interprocedural tabulation solver
// in the style of Reps–Horwitz–Sagiv [POPL'95], the framework the paper's
// forward analyses are implemented in ("The forward analysis is expressed
// as an instance of the RHS tabulation framework", §6).
//
// The solver works on a supergraph: one control-flow graph per method, with
// call edges that carry the parameter-binding and return-binding atoms.
// Dataflow facts are single abstract states D (the analyses are
// disjunctive), path edges are ⟨d_entry, n, d⟩ triples per method, and
// procedure summaries map (method, entry fact) to exit facts. Provenance is
// recorded per path edge so that abstract counterexample traces — flat
// sequences of atomic commands with callee traces spliced in at call sites
// — can be reconstructed for the backward meta-analysis.
//
// Unlike the inlining lowering (ir.Lower), the tabulation handles recursive
// call graphs: recursion becomes a fixpoint over summaries. Locals are
// still identified per method (not per frame), so recursive frames collapse
// into one abstract frame; DESIGN.md discusses this modeling choice.
package rhs

import (
	"fmt"

	"tracer/internal/lang"
)

// CallEdge describes the interprocedural part of an edge: which method is
// invoked, the atoms binding actuals to formals (and nulling the callee's
// frame), and the atoms binding the returned value after the callee exits.
type CallEdge struct {
	Callee int // method index
	Bind   []lang.Atom
	Ret    []lang.Atom
}

// Edge is a supergraph edge within one method. Exactly one of {Atom, Call}
// may be set; both nil is an ε edge.
type Edge struct {
	From, To int
	Atom     lang.Atom
	Call     *CallEdge
}

// Method is one method's control-flow graph.
type Method struct {
	Name  string
	Nodes int
	Entry int
	Exit  int
	Edges []Edge
	Out   [][]int
}

// AddNode allocates a node.
func (m *Method) AddNode() int {
	n := m.Nodes
	m.Nodes++
	m.Out = append(m.Out, nil)
	return n
}

// AddEdge appends an edge.
func (m *Method) AddEdge(e Edge) {
	if e.Atom != nil && e.Call != nil {
		panic("rhs: edge cannot be both intra and call")
	}
	if e.From < 0 || e.From >= m.Nodes || e.To < 0 || e.To >= m.Nodes {
		panic(fmt.Sprintf("rhs: edge (%d,%d) out of range [0,%d)", e.From, e.To, m.Nodes))
	}
	m.Edges = append(m.Edges, e)
	m.Out[e.From] = append(m.Out[e.From], len(m.Edges)-1)
}

// Graph is a whole-program supergraph.
type Graph struct {
	Methods []*Method
	Main    int // index of the entry method
}

// NewMethod appends an empty method graph and returns its index.
func (g *Graph) NewMethod(name string) int {
	m := &Method{Name: name}
	g.Methods = append(g.Methods, m)
	return len(g.Methods) - 1
}

// EachAtom visits every atom of the supergraph, including call-edge binding
// atoms. It is how universe collectors (variables, fields, sites) see the
// whole program.
func (g *Graph) EachAtom(f func(a lang.Atom)) {
	for _, m := range g.Methods {
		for _, e := range m.Edges {
			if e.Atom != nil {
				f(e.Atom)
			}
			if e.Call != nil {
				for _, a := range e.Call.Bind {
					f(a)
				}
				for _, a := range e.Call.Ret {
					f(a)
				}
			}
		}
	}
}

// AtomsCFG flattens every atom onto a throwaway single-method CFG, so the
// universe collector lang.Names, which consumes lang.CFG values, applies
// unchanged.
func (g *Graph) AtomsCFG() *lang.CFG {
	out := lang.NewCFG()
	cur := out.AddNode()
	g.EachAtom(func(a lang.Atom) {
		next := out.AddNode()
		out.AddEdge(cur, next, a)
		cur = next
	})
	out.Exit = cur
	return out
}

// Atoms counts non-ε intra edges plus binding atoms, a size measure.
func (g *Graph) Atoms() int {
	n := 0
	for _, m := range g.Methods {
		for _, e := range m.Edges {
			if e.Atom != nil {
				n++
			}
			if e.Call != nil {
				n += len(e.Call.Bind) + len(e.Call.Ret)
			}
		}
	}
	return n
}
