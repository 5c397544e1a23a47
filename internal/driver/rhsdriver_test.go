package driver

import (
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/obs"
	"tracer/internal/typestate"
)

// recursiveSrc builds a linked structure through recursion — the inlining
// pipeline rejects it, the tabulation pipeline resolves its queries.
const recursiveSrc = `
global registry

class Node {
  field next
  method grow(this, n) {
    var child, out
    out = this
    if * {
      child = new Node @ hChild
      this.next = child
      out = child.grow(n)
    }
    return out
  }
  method leak(this) {
    if * {
      registry = this
    }
  }
}

class File {
  native method open(this)
  native method close(this)
}

class Main {
  method main(this) {
    var root, tail, f, priv
    root = new Node @ hRoot
    tail = root.grow(root)
    root.leak()
    f = new File @ hFile
    f.open()
    f.close()
    query qFile state(f: closed)
    query qRoot local(root)
    priv = new Node @ hPriv
    query qPriv local(priv)
  }
}
`

func TestRHSPipelineRecursive(t *testing.T) {
	if _, err := Load(recursiveSrc); err == nil || !strings.Contains(err.Error(), "recursive") {
		t.Fatalf("inlining pipeline should reject recursion, got %v", err)
	}
	p, err := LoadRHS(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := p.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]core.Status{
		"qFile@hFile": core.Proved,     // open/close in order, untouched by recursion
		"qRoot":       core.Impossible, // leaked to the registry on one path
		"qPriv":       core.Proved,     // never escapes
	}
	for name, status := range want {
		job, ok := jobs[name]
		if !ok {
			t.Fatalf("missing job %s (have %v)", name, jobNames(jobs))
		}
		res, err := core.Solve(job, core.Options{MaxIters: 200})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Status != status {
			t.Errorf("%s: status %v, want %v (iters=%d)", name, res.Status, status, res.Iterations)
		}
	}
}

func jobNames(m map[string]RHSProblem) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestRHSMatchesInlinerOutcomes: on the acyclic interproc program, the two
// backends resolve the explicit queries identically, with identical
// cheapest abstractions.
func TestRHSMatchesInlinerOutcomes(t *testing.T) {
	inl := load(t)
	rhsP, err := LoadRHS(interprocSrc)
	if err != nil {
		t.Fatal(err)
	}
	rhsJobs, err := rhsP.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}

	inlTS, inlEsc, err := inl.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	// Escape queries.
	for name, inlJob := range inlEsc {
		want, err := core.Solve(inlJob, core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Solve(rhsJobs[name], core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Errorf("%s: rhs %v vs inliner %v", name, got.Status, want.Status)
		}
		if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
			t.Errorf("%s: rhs |p|=%d vs inliner %d", name, got.Abstraction.Len(), want.Abstraction.Len())
		}
	}
	// Type-state queries.
	for name, inlJob := range inlTS {
		want, err := core.Solve(inlJob, core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		got, err := core.Solve(rhsJobs[name], core.Options{MaxIters: 300})
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status {
			t.Errorf("%s: rhs %v vs inliner %v", name, got.Status, want.Status)
		}
		if want.Status == core.Proved && got.Abstraction.Len() != want.Abstraction.Len() {
			t.Errorf("%s: rhs |p|=%d vs inliner %d", name, got.Abstraction.Len(), want.Abstraction.Len())
		}
	}
}

// TestRHSOutcomeAccounting: a tabulation job accounts its forward work like
// the inline job. A proved query's ForwardSteps includes the proving run's
// path edges, so under NoDelta it equals the sum of the rhs.path_edges
// counters over its iterations; and the job flushes the formula.* and
// meta.* counters of its backward passes.
func TestRHSOutcomeAccounting(t *testing.T) {
	p, err := LoadRHS(recursiveSrc)
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := p.ExplicitJobs(typestate.FileProperty(), 5)
	if err != nil {
		t.Fatal(err)
	}
	job := jobs["qFile@hFile"]
	cap := obs.NewCapture()
	job.Observe(cap)
	job.(*rhsJob[typestate.State]).NoDelta = true
	res, err := core.Solve(job, core.Options{Recorder: cap})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != core.Proved {
		t.Fatalf("status %v, want proved", res.Status)
	}
	var pathEdges int64
	counters := map[string]bool{}
	for _, e := range cap.Events() {
		if e.Kind == obs.CounterKind {
			counters[e.Name] = true
			if e.Name == "rhs.path_edges" {
				pathEdges += e.Value
			}
		}
	}
	if int64(res.ForwardSteps) != pathEdges || pathEdges == 0 {
		t.Errorf("ForwardSteps = %d, sum of rhs.path_edges = %d", res.ForwardSteps, pathEdges)
	}
	if res.Iterations > 1 && !counters["formula.cube_products"] {
		t.Errorf("no formula.* counters flushed; have %v", counters)
	}
}
