package driver

import (
	"reflect"
	"sync"
	"testing"

	"tracer/internal/core"
	"tracer/internal/escape"
	"tracer/internal/ir"
	"tracer/internal/typestate"
)

// interprocSrc is a small interprocedural program with virtual dispatch:
// Main.main allocates a Conn and a Pool, registers the Conn in the Pool
// (which escapes it via a global on one path), and uses a File through a
// helper that closes it.
const interprocSrc = `
global registry

class File {
  native method open(this)
  native method close(this)
}

class Conn {
  field buf
  method fill(this, b) {
    this.buf = b
    return this
  }
}

class Pool {
  method put(this, c) {
    if * {
      registry = c
    }
  }
}

class Main {
  method main(this) {
    var f, c, p, b, c2
    f = new File @ hFile
    f.open()
    f.close()
    c = new Conn @ hConn
    b = new Conn @ hBuf
    c2 = c.fill(b)
    p = new Pool @ hPool
    p.put(c)
    query qBuf local(b)
    query qPool local(p)
    query qFile state(f: closed)
  }
}
`

func load(t *testing.T) *Program {
	t.Helper()
	p, err := Load(interprocSrc)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestLoadAndStats(t *testing.T) {
	p := load(t)
	s := p.ComputeStats(interprocSrc)
	if s.TotalClasses != 4 || s.AppClasses != 4 {
		t.Errorf("classes = %d/%d, want 4/4", s.AppClasses, s.TotalClasses)
	}
	if s.TotalMethods != 5 {
		t.Errorf("methods = %d, want 5", s.TotalMethods)
	}
	if s.TypestateParams == 0 || s.EscapeParams != 4 {
		t.Errorf("params = %d vars / %d sites, want >0 / 4", s.TypestateParams, s.EscapeParams)
	}
	if s.TotalAtoms == 0 || s.TotalAtoms != s.AppAtoms {
		t.Errorf("atoms = %d/%d", s.AppAtoms, s.TotalAtoms)
	}
}

func TestPointsToResolvesDispatch(t *testing.T) {
	p := load(t)
	// The Conn allocated at hConn must flow into Pool.put's parameter c.
	put := p.IR.ClassByName("Pool").LookupMethod("put")
	pts := p.PT.PointsTo(put, "c")
	id, ok := p.PT.Sites.Lookup("hConn")
	if !ok || !pts.Has(id) {
		t.Fatalf("Pool.put::c points to %v, want it to include hConn", pts)
	}
	// fill's return value flows back to c2.
	main := p.IR.Main()
	c2 := p.PT.PointsTo(main, "c2")
	if hc, _ := p.PT.Sites.Lookup("hConn"); !c2.Has(hc) {
		t.Fatalf("Main.main::c2 points to %v, want hConn", c2)
	}
}

func TestQueryGeneration(t *testing.T) {
	p := load(t)
	ts := inlineQueries(p, typestate.Spec)
	if len(ts) == 0 {
		t.Fatal("no type-state queries generated")
	}
	// Each query pairs an app call site with an app site the receiver may
	// reach; f.open() with hFile must be among them.
	found := false
	for _, q := range ts {
		if q.Goal.Subject == "hFile" && q.Stmt.(*ir.CallStmt).Method == "open" {
			found = true
		}
	}
	if !found {
		t.Errorf("missing (f.open(), hFile) query; got %d queries", len(ts))
	}
	esc := inlineQueries(p, escape.Spec)
	if len(esc) == 0 {
		t.Fatal("no escape queries generated")
	}
}

// TestExplicitEscapeQueries: b is stored into a Conn that escapes through
// the registry global on one path, so local(b) is only provable if the
// analysis maps hConn and hBuf to L; p never escapes.
func TestExplicitEscapeQueries(t *testing.T) {
	p := load(t)
	_, jobs, err := p.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Fatalf("explicit escape jobs = %d, want 2", len(jobs))
	}
	resPool, err := core.Solve(jobs["qPool"], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resPool.Status != core.Proved {
		t.Fatalf("qPool: status = %v, want proved", resPool.Status)
	}
	resBuf, err := core.Solve(jobs["qBuf"], core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// b itself is only read locally; the escape of c does not touch the
	// local binding of b (b is set before the store and the store keeps
	// b's L-ness only if hBuf is L). The query must be resolvable either
	// way — what matters is TRACER terminates with a definite answer.
	if resBuf.Status == core.Exhausted {
		t.Fatalf("qBuf: exhausted after %d iterations", resBuf.Iterations)
	}
}

// TestExplicitTypestateQuery: the File protocol query (f in state closed at
// the end) must be provable, since open/close are called in order on f.
func TestExplicitTypestateQuery(t *testing.T) {
	p := load(t)
	jobs, _, err := p.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs["qFile@hFile"]
	if job == nil {
		t.Fatalf("missing qFile@hFile job; have %v", keys(jobs))
	}
	res, err := core.Solve(job, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("qFile: status = %v (iters=%d), want proved", res.Status, res.Iterations)
	}
}

func keys[V any](m map[string]*V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestGeneratedQueriesResolve runs TRACER over every generated query of
// both clients and requires a definite outcome.
func TestGeneratedQueriesResolve(t *testing.T) {
	p := load(t)
	for _, name := range []string{"typestate", "escape"} {
		c := ClientByName(name)
		for i, q := range c.Queries(p) {
			res, err := core.Solve(c.Job(p, i, 5), core.Options{MaxIters: 100})
			if err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if res.Status == core.Exhausted {
				t.Errorf("%s: exhausted", q.ID)
			}
		}
	}
}

// TestQueryMemoConcurrent: a Program is shared by concurrent server rounds,
// so the lazily built query lists (and the statement-key memo behind them)
// must be safe to build and read from several goroutines at once, and every
// caller must see the same list.
func TestQueryMemoConcurrent(t *testing.T) {
	p := load(t)
	var wg sync.WaitGroup
	lists := make([][][]GenQuery, 4)
	for w := range lists {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, c := range Clients() {
				qs := c.Queries(p)
				lists[w] = append(lists[w], qs)
				if len(qs) > 0 {
					c.Job(p, len(qs)-1, 1)
					c.Batch(p, []int{0}, 1)
				}
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < len(lists); w++ {
		if !reflect.DeepEqual(lists[w], lists[0]) {
			t.Fatalf("goroutine %d saw different query lists", w)
		}
	}
}
