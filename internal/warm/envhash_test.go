package warm_test

import (
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"testing"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/uset"
	"tracer/internal/warm"
)

// envHashScan is the original definition of driver's EnvHash: it scans every
// qualified variable of the program for the listed methods' ones.
func envHashScan(p *driver.Program, methods []string) uint64 {
	want := make(map[string]bool, len(methods))
	for _, m := range methods {
		want[m] = true
	}
	varPts := map[string]uset.Set{}
	for _, m := range p.PT.ReachableMethods() {
		if m.Native {
			continue
		}
		vars := append([]string{"this"}, m.Params...)
		vars = append(vars, m.Locals...)
		for _, v := range vars {
			varPts[ir.Qualify(m, v)] = p.PT.PointsTo(m, v)
		}
	}
	var qvs []string
	for qv := range varPts {
		if i := strings.Index(qv, "::"); i >= 0 && want[qv[:i]] {
			qvs = append(qvs, qv)
		}
	}
	sort.Strings(qvs)
	h := fnv.New64a()
	var labels []string
	for _, qv := range qvs {
		h.Write([]byte(qv))
		h.Write([]byte{0})
		labels = labels[:0]
		for _, id := range varPts[qv].Elems() {
			labels = append(labels, p.PT.Sites.Value(id))
		}
		sort.Strings(labels)
		for _, l := range labels {
			h.Write([]byte(l))
			h.Write([]byte{1})
		}
		h.Write([]byte{2})
	}
	return h.Sum64()
}

// TestEnvHashMatchesScan pins the per-method index of EnvHash to the
// original whole-program scan: on the tsp suite program, for every method
// subset of every counterexample trace's support set that a solve of any
// client's queries learns from, both give the same hash, in any order and
// with repeats.
func TestEnvHashMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("solves a whole suite program")
	}
	p := bench.MustLoad(bench.Suite()[0]).Prog // tsp
	supports := map[string][]string{}
	for _, spec := range driver.Clients() {
		for i := range spec.Queries(p) {
			_, err := core.Solve(spec.Job(p, i, 5), core.Options{
				MaxIters: 100,
				OnLearn: func(_ int, _ uset.Set, tr lang.Trace, _ []core.ParamCube) {
					s := warm.SupportMethods(p, tr)
					supports[strings.Join(s, "\x00")] = s
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	checked := 0
	for _, s := range supports {
		if len(s) > 16 {
			t.Fatalf("support of %d methods: too many subsets to enumerate", len(s))
		}
		for mask := 0; mask < 1<<len(s); mask++ {
			var sub []string
			for i, m := range s {
				if mask&(1<<i) != 0 {
					sub = append(sub, m)
				}
			}
			want := envHashScan(p, sub)
			// The listed order and repeats must not matter either.
			shuffled := append([]string(nil), sub...)
			slices.Reverse(shuffled)
			if len(sub) > 0 {
				shuffled = append(shuffled, sub[0])
			}
			for _, ms := range [][]string{sub, shuffled} {
				if got := p.EnvHash(ms); got != want {
					t.Fatalf("EnvHash(%q) = %016x, the whole-program scan gives %016x", ms, got, want)
				}
			}
			checked++
		}
	}
	if len(supports) == 0 {
		t.Fatal("no counterexample trace was learned from")
	}
	t.Logf("%d supports, %d method subsets", len(supports), checked)
}

// TestEnvHashMethodPrefixes covers method names of which one extends
// another by characters that sort below ':' (run, run2): their variables
// sort in the opposite order to the names themselves.
func TestEnvHashMethodPrefixes(t *testing.T) {
	p, err := driver.Load(`
class Main {
  method main(this) {
    var a
    a = new Main @ h1
    a.run(a)
    a.run2(a)
  }
  method run(this, x) {
    var y
    y = new Main @ h2
  }
  method run2(this, x) {
    var y
    y = x
  }
}
`)
	if err != nil {
		t.Fatal(err)
	}
	methods := []string{"Main.main", "Main.run", "Main.run2"}
	for _, m := range methods {
		if p.EnvHash([]string{m}) == p.EnvHash(nil) {
			t.Fatalf("no variable of %s is hashed", m)
		}
	}
	for mask := 0; mask < 1<<len(methods); mask++ {
		var sub []string
		for i, m := range methods {
			if mask&(1<<i) != 0 {
				sub = append(sub, m)
			}
		}
		if got, want := p.EnvHash(sub), envHashScan(p, sub); got != want {
			t.Fatalf("EnvHash(%q) = %016x, the whole-program scan gives %016x", sub, got, want)
		}
	}
}
