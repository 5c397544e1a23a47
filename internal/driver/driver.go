// Package driver ties the front end together: it parses a mini-IR program,
// runs the 0-CFA points-to analysis, lowers the program to a single CFG by
// inlining (or, in rhsdriver.go, onto a supergraph for tabulation), and
// generates each registered client's queries the way the paper's evaluation
// does (§6), restricted to application code (classes whose names start with
// "Lib" play the role of the JDK).
package driver

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"

	"tracer/internal/client"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/pointsto"
	"tracer/internal/typestate"
	"tracer/internal/uset"
)

// LibPrefix marks library classes, excluded from query generation but fully
// analyzed, mirroring how the paper poses no queries inside the JDK.
const LibPrefix = "Lib"

// front is the part of a loaded program both pipelines share: points-to
// facts, the parameter universes, and the generated-query memo.
type front struct {
	client.Universe
	IR *ir.Program
	PT *pointsto.Result

	// varPts maps qualified variable names to their may-point-to site sets.
	varPts map[string]uset.Set
	// appSite marks the allocation sites that occur in application code.
	appSite map[string]bool

	// queries memoizes each client's generated query list, keyed by its
	// *client.Spec; safe for concurrent use.
	queries sync.Map

	stmtKeysOnce, siteOwnerOnce, methodEnvOnce sync.Once
	stmtKeysMemo                               map[ir.Stmt]string
	siteOwnerMemo                              map[string]string
	methodEnvMemo                              map[string]*methodEnv
}

// methodEnv is one method's share of EnvHash's input, serialized once per
// program: its qualified variables in sorted order, each followed by its
// sorted may-point-to site labels.
type methodEnv struct {
	prefix string // "<QualName>::", which orders the methods as their variables sort
	data   []byte
}

// occurrence is one lowered occurrence of an application statement that
// clients may pose generated queries at; at is its program point.
type occurrence[P any] struct {
	m    *ir.Method
	stmt ir.Stmt
	o    client.Occurrence
	at   P
}

// newFront prepares the shared front end over the lowered atoms flat and the
// application occurrences occs of one pipeline.
func newFront[P any](prog *ir.Program, pt *pointsto.Result, flat *lang.CFG, occs []occurrence[P]) *front {
	f := &front{IR: prog, PT: pt, varPts: map[string]uset.Set{}, appSite: map[string]bool{}}
	f.Locals, f.Fields, f.Sites = lang.Names(flat)
	for _, m := range pt.ReachableMethods() {
		if m.Native {
			continue
		}
		vars := append([]string{"this"}, m.Params...)
		vars = append(vars, m.Locals...)
		for _, v := range vars {
			f.varPts[ir.Qualify(m, v)] = pt.PointsTo(m, v)
		}
	}
	for _, m := range prog.Methods() {
		if IsApp(m) {
			ir.WalkStmts(m.Body, func(s ir.Stmt) {
				if n, ok := s.(*ir.NewStmt); ok {
					f.appSite[n.Site] = true
				}
			})
		}
	}
	called := map[string]bool{}
	for _, oc := range occs {
		if cs, ok := oc.stmt.(*ir.CallStmt); ok && !called[cs.Method] {
			called[cs.Method] = true
			f.Methods = append(f.Methods, cs.Method)
		}
	}
	sort.Strings(f.Methods)
	f.MayPoint = f.mayPoint
	f.AppSites = f.appSites
	return f
}

// Query is one generated query of a pipeline whose program points are P:
// CFG nodes (int) for the inlining pipeline, supergraph points for RHS.
type Query[P any] struct {
	ID string
	// Key is the position-independent identity used by the warm-start
	// store: unlike ID (which embeds line:col), it survives reformatting
	// and edits to other methods.
	Key  string
	Goal client.Goal
	Stmt ir.Stmt
	// At lists the lowered occurrences of Stmt, in order. Shared by every
	// job of the query; never mutated.
	At []P
}

// queryMemo is one client's generated query list, built once.
type queryMemo[P any] struct {
	once sync.Once
	qs   []Query[P]
}

// generated returns spec's queries over occs: one per (statement, goal
// subject) pair the spec poses, with deterministic order. The list is built
// once per program and shared.
func generated[D comparable, P any](f *front, spec *client.Spec[D], occs []occurrence[P], less func(a, b P) bool) []Query[P] {
	v, ok := f.queries.Load(spec)
	if !ok {
		v, _ = f.queries.LoadOrStore(spec, &queryMemo[P]{})
	}
	m := v.(*queryMemo[P])
	m.once.Do(func() {
		type key struct {
			stmt    ir.Stmt
			subject string
		}
		idx := map[key]int{}
		for _, oc := range occs {
			for _, g := range spec.Goals(&f.Universe, oc.o) {
				k := key{oc.stmt, g.Subject}
				i, seen := idx[k]
				if !seen {
					i = len(m.qs)
					idx[k] = i
					m.qs = append(m.qs, Query[P]{
						ID:   fmt.Sprintf("%s:%s:%s:%s", spec.Prefix, oc.m.QualName(), oc.stmt.Position(), g.Subject),
						Key:  spec.Prefix + ":" + f.StmtKey(oc.stmt) + ":" + g.Subject,
						Goal: g,
						Stmt: oc.stmt,
					})
				}
				m.qs[i].At = append(m.qs[i].At, oc.at)
			}
		}
		for _, q := range m.qs {
			sort.Slice(q.At, func(i, j int) bool { return less(q.At[i], q.At[j]) })
		}
		sort.Slice(m.qs, func(i, j int) bool { return m.qs[i].ID < m.qs[j].ID })
	})
	return m.qs
}

// Program is a loaded, lowered, and points-to-analyzed program.
type Program struct {
	*front
	Low *ir.Lowered

	occs []occurrence[int]
}

// Load parses src and prepares all analyses.
func Load(src string) (*Program, error) {
	prog, err := ir.Parse(src)
	if err != nil {
		return nil, err
	}
	return Prepare(prog)
}

// Prepare runs points-to and lowering on an already-parsed program.
func Prepare(prog *ir.Program) (*Program, error) {
	pt, err := pointsto.Analyze(prog)
	if err != nil {
		return nil, err
	}
	low, err := ir.Lower(prog, pt, ir.LowerOptions{})
	if err != nil {
		return nil, err
	}
	p := &Program{Low: low}
	for _, cs := range low.Calls {
		if IsApp(cs.Method) {
			p.occs = append(p.occs, occurrence[int]{cs.Method, cs.Stmt, client.Occurrence{Call: true, Var: cs.Recv}, cs.Node})
		}
	}
	for _, fa := range low.Accesses {
		if IsApp(fa.Method) {
			p.occs = append(p.occs, occurrence[int]{fa.Method, fa.Stmt, client.Occurrence{Var: fa.Base}, fa.Node})
		}
	}
	p.front = newFront(prog, pt, low.G, p.occs)
	return p, nil
}

// StmtKey returns a stable, position-independent identity for a source
// statement ("Class.method#<ordinal>#<rendering>"); queries keyed by it keep
// their identity across reformatting and across edits to other methods. The
// table is built on first use.
func (f *front) StmtKey(s ir.Stmt) string {
	f.stmtKeysOnce.Do(func() { f.stmtKeysMemo = ir.StmtKeys(f.IR) })
	return f.stmtKeysMemo[s]
}

// SiteOwner returns the QualName of the method whose body allocates at site
// h, or "" when h is unknown. The warm-start layer treats the owner as a
// supporting method of any counterexample trace mentioning h.
func (f *front) SiteOwner(h string) string {
	f.siteOwnerOnce.Do(func() {
		f.siteOwnerMemo = map[string]string{}
		for _, m := range f.IR.Methods() {
			qual := m.QualName()
			ir.WalkStmts(m.Body, func(s ir.Stmt) {
				if n, ok := s.(*ir.NewStmt); ok {
					if _, dup := f.siteOwnerMemo[n.Site]; !dup {
						f.siteOwnerMemo[n.Site] = qual
					}
				}
			})
		}
	})
	return f.siteOwnerMemo[h]
}

// EnvHash digests the points-to environment restricted to the given methods
// (QualNames): every qualified variable of a listed method together with its
// sorted may-point-to site labels. A stored blocking clause justified by a
// counterexample trace through those methods remains valid only while this
// hash is unchanged — the trace's call branches were selected by exactly
// these points-to sets. Labels (not interned IDs) are hashed so the result
// is comparable across separately-loaded programs. Each method's share is
// serialized on first use, so a call hashes the listed methods' bytes
// without scanning, sorting or rendering any points-to set.
func (f *front) EnvHash(methods []string) uint64 {
	f.methodEnvOnce.Do(f.indexMethodEnv)
	envs := make([]*methodEnv, 0, len(methods))
	for i, m := range methods {
		if e := f.methodEnvMemo[m]; e != nil && !slices.Contains(methods[:i], m) {
			envs = append(envs, e)
		}
	}
	// The variables of one method are contiguous in sorted order, since an
	// owner is everything before a variable's first "::".
	sort.Slice(envs, func(i, j int) bool { return envs[i].prefix < envs[j].prefix })
	h := fnv.New64a()
	for _, e := range envs {
		h.Write(e.data)
	}
	return h.Sum64()
}

// indexMethodEnv serializes every method's share of EnvHash's input.
func (f *front) indexMethodEnv() {
	byOwner := map[string][]string{}
	for qv := range f.varPts {
		if i := strings.Index(qv, "::"); i >= 0 {
			byOwner[qv[:i]] = append(byOwner[qv[:i]], qv)
		}
	}
	f.methodEnvMemo = make(map[string]*methodEnv, len(byOwner))
	var labels []string
	for m, qvs := range byOwner {
		sort.Strings(qvs)
		var data []byte
		for _, qv := range qvs {
			data = append(append(data, qv...), 0)
			labels = labels[:0]
			for _, id := range f.varPts[qv].Elems() {
				labels = append(labels, f.PT.Sites.Value(id))
			}
			sort.Strings(labels)
			for _, l := range labels {
				data = append(append(data, l...), 1)
			}
			data = append(data, 2)
		}
		f.methodEnvMemo[m] = &methodEnv{prefix: m + "::", data: data}
	}
}

// IsApp reports whether a method belongs to application code.
func IsApp(m *ir.Method) bool {
	return !strings.HasPrefix(m.Class.Name, LibPrefix)
}

// mayPoint returns the oracle "may qualified variable qv point to site h".
func (f *front) mayPoint(h string) func(qv string) bool {
	id, ok := f.PT.Sites.Lookup(h)
	if !ok {
		return func(string) bool { return false }
	}
	return func(qv string) bool { return f.varPts[qv].Has(id) }
}

// appSites lists the application allocation sites qv may point to.
func (f *front) appSites(qv string) []string {
	var out []string
	for _, hid := range f.varPts[qv].Elems() {
		if h := f.PT.Sites.Value(hid); f.appSite[h] {
			out = append(out, h)
		}
	}
	return out
}

// explicitGoals groups a pipeline's explicit query statements by name:
// "query name local(v)" is a thread-escape goal on v, and "query name
// state(v: ...)" against prop is one type-state goal per site v may point
// to, named "name@site". stmt maps a lowered statement to its query and
// program point.
func explicitGoals[Q, P any](f *front, qs []Q, prop *typestate.Property, stmt func(Q) (ir.ExplicitQuery, P)) (ts, esc map[string]*Query[P], err error) {
	ts, esc = map[string]*Query[P]{}, map[string]*Query[P]{}
	add := func(m map[string]*Query[P], name string, g client.Goal, at P) {
		if m[name] == nil {
			m[name] = &Query[P]{ID: name, Goal: g}
		}
		m[name].At = append(m[name].At, at)
	}
	for _, raw := range qs {
		q, at := stmt(raw)
		switch q.Kind {
		case ir.QueryLocal:
			add(esc, q.Name, client.Goal{Subject: q.Var}, at)
		case ir.QueryTypestate:
			var want uset.Bits
			for _, s := range q.States {
				found := false
				for i, name := range prop.States {
					if name == s {
						want = want.Add(i)
						found = true
					}
				}
				if !found {
					return nil, nil, fmt.Errorf("driver: query %s: unknown automaton state %q", q.Name, s)
				}
			}
			for _, hid := range f.varPts[q.Var].Elems() {
				h := f.PT.Sites.Value(hid)
				add(ts, q.Name+"@"+h, client.Goal{Subject: h, Want: want}, at)
			}
		}
	}
	return ts, esc, nil
}

// ExplicitJobs builds jobs for the program's explicit query statements: the
// type-state jobs of "query name state(v: ...)" against prop, keyed
// "name@site", and the thread-escape jobs of "query name local(v)".
func (p *Program) ExplicitJobs(prop *typestate.Property, k int) (map[string]*client.Job[typestate.State], map[string]*client.Job[escape.State], error) {
	ts, esc, err := explicitGoals(p.front, p.Low.Queries, prop, func(q ir.ExplicitQuery) (ir.ExplicitQuery, int) { return q, q.Node })
	if err != nil {
		return nil, nil, err
	}
	return inlineJobs(p, typestate.NewSpec(prop), ts, k), inlineJobs(p, escape.Spec, esc, k), nil
}

func inlineJobs[D comparable](p *Program, spec *client.Spec[D], qs map[string]*Query[int], k int) map[string]*client.Job[D] {
	out := make(map[string]*client.Job[D], len(qs))
	for name, q := range qs {
		out[name] = client.NewJob(spec.New(&p.Universe, q.Goal), q.Goal, p.Low.G, q.At, k)
	}
	return out
}

// Stats summarizes program size for Table 1.
type Stats struct {
	AppClasses, TotalClasses int
	AppMethods, TotalMethods int
	AppAtoms, TotalAtoms     int // lowered atomic commands ("bytecode")
	SourceLines              int
	TypestateParams          int // N for the type-state family 2^N
	EscapeParams             int // N for the thread-escape family 2^N
	NullnessParams           int // N for the null-dereference family 2^N
}

// ComputeStats gathers Table 1 statistics. src may be empty (lines = 0).
func (p *Program) ComputeStats(src string) Stats {
	s := Stats{
		TypestateParams: len(p.Locals),
		EscapeParams:    len(p.Sites),
		NullnessParams:  len(p.Locals) + len(p.Fields),
		SourceLines:     strings.Count(src, "\n") + 1,
	}
	if src == "" {
		s.SourceLines = 0
	}
	for _, c := range p.IR.Classes {
		s.TotalClasses++
		app := !strings.HasPrefix(c.Name, LibPrefix)
		if app {
			s.AppClasses++
		}
		s.TotalMethods += len(c.Methods)
		if app {
			s.AppMethods += len(c.Methods)
		}
	}
	s.TotalAtoms = p.Low.Atoms
	for m, n := range p.Low.AtomsByMethod {
		if IsApp(m) {
			s.AppAtoms += n
		}
	}
	return s
}
