// Package client is the contract between TRACER's generic plumbing and the
// parametric analyses it optimizes (§3–4 of the paper). A client supplies a
// Spec: how to build an analysis over a program's parameter universe, how to
// pose generated queries, and which queries may share an analysis instance.
// Each analysis instance supplies the forward lattice (Initial, Transfer,
// TransferDep), the query (Holds, NotQ), and the meta-analysis primitives
// (Theory, WP, EvalLit, Param). One Job, one batch problem, and the drivers
// above are written once over this contract.
package client

import (
	"tracer/internal/dataflow"
	"tracer/internal/formula"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

// Goal is what one query asks, independent of where it is checked. Subject
// is the queried variable (thread-escape, null-dereference) or the tracked
// allocation site (type-state); Want is the set of automaton states the
// type-state client requires the tracked object to stay within.
type Goal struct {
	Subject string
	Want    uset.Bits
}

// Analysis is one instance of a client's parametric analysis. Instances
// intern abstract states and are therefore not safe for concurrent use;
// states are meaningful only to the instance that produced them.
type Analysis[D comparable] interface {
	// Initial is the initial abstract state dI.
	Initial() D
	// Transfer instantiates the transfer function [a]p at abstraction p.
	Transfer(p uset.Set) dataflow.Transfer[D]
	// TransferDep is Transfer with dependency literals for the incremental
	// solvers (dataflow.Chain, rhs.Chain).
	TransferDep(p uset.Set) dataflow.DepTransfer[D]
	// Holds reports whether state d satisfies goal g.
	Holds(g Goal, d D) bool
	// NotQ is the failure condition not(q) of goal g.
	NotQ(g Goal) formula.Formula
	// Theory is the literal theory of the meta-analysis.
	Theory() formula.Theory
	// WP is the weakest precondition of a positive primitive (meta.Client).
	WP(at lang.Atom, prim formula.Prim) formula.Formula
	// EvalLit evaluates a literal at (p, d).
	EvalLit(l formula.Lit, p uset.Set, d D) bool
	// Param maps a parameter literal to its parameter index and the
	// polarity under which the literal holds (on: the index is in p). ok is
	// false for state literals.
	Param(l formula.Lit) (id int, on, ok bool)
	// NumParams is N for the abstraction family 2^N.
	NumParams() int
	// ParamName names parameter i.
	ParamName(i int) string
}

// Universe is the pipeline-independent view of a loaded program that a Spec
// builds analyses and poses queries over.
type Universe struct {
	// Locals, Fields, Sites are the pointer variables, fields, and
	// allocation sites the lowered program mentions, sorted: the clients'
	// parameter universes.
	Locals, Fields, Sites []string
	// Methods lists the application method names called anywhere, sorted:
	// the stress type-state property is built from it.
	Methods []string
	// MayPoint returns the may-point-to oracle of allocation site h over
	// qualified variables; nil means every variable may point anywhere.
	MayPoint func(h string) func(qv string) bool
	// AppSites lists the application allocation sites qualified variable qv
	// may point to.
	AppSites func(qv string) []string
}

// Occurrence is one application statement a client may pose generated
// queries at: a call (Call set, Var the qualified receiver) or a field
// access (Var the qualified base pointer).
type Occurrence struct {
	Call bool
	Var  string
}

// Spec is the program-level half of a client.
type Spec[D comparable] struct {
	// Prefix starts the IDs and keys of generated queries ("ts").
	Prefix string
	// New builds a fresh analysis instance over u that answers g and every
	// goal sharing g's key.
	New func(u *Universe, g Goal) Analysis[D]
	// Goals lists the goals posed at one application occurrence (§6).
	Goals func(u *Universe, o Occurrence) []Goal
	// Share is the analysis-sharing key: goals with equal keys are checked
	// against one forward run, solved lazily per key on first use. nil
	// means the analysis is query-independent: one instance, solved eagerly,
	// answers every goal.
	Share func(g Goal) string
	// ConfExtra is the client's suffix of the warm store's config signature,
	// naming whole-program state beyond k; nil means none.
	ConfExtra func(u *Universe) string
}

// key is the analysis-sharing key of g.
func (s *Spec[D]) key(g Goal) string {
	if s.Share == nil {
		return ""
	}
	return s.Share(g)
}

// ParamNames lists the client's parameter universe over u in
// parameter-index order.
func (s *Spec[D]) ParamNames(u *Universe) []string {
	a := s.New(u, Goal{})
	out := make([]string, a.NumParams())
	for i := range out {
		out[i] = a.ParamName(i)
	}
	return out
}
