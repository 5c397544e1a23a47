package warm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/lang"
	"tracer/internal/uset"
)

const progBase = `
global g

class Main {
  field f
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    return u
  }
}
`

// progEditNeutral edits Helper.work without changing any points-to set: a
// duplicated call to an existing method.
const progEditNeutral = `
global g

class Main {
  field f
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    u.ping()
    return u
  }
}
`

// progShape adds a field: a declaration-shape change (cold restart).
const progShape = `
global g

class Main {
  field f, f2
  method main(this) {
    var a, b, t
    a = new Main @ h1
    b = new Helper @ h2
    t = b.work(a)
    a.ping()
    t.ping()
    a.f = t
  }
  method ping(this) {
    return
  }
}

class Helper {
  method work(this, x) {
    var u
    u = new Main @ h3
    if * {
      u = x
    }
    u.ping()
    return u
  }
}
`

func load(t *testing.T, src string) *driver.Program {
	t.Helper()
	p, err := driver.Load(src)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return p
}

// solveTS resolves every generated type-state query through the session,
// mirroring the bench harness wiring: replay, then seeded solve, then
// record. Returns results keyed by the stable query key.
func solveTS(t *testing.T, p *driver.Program, sess *Session, conf Config) map[string]core.Result {
	return solveAll(t, driver.ClientByName("typestate"), p, sess, conf)
}

func solveEsc(t *testing.T, p *driver.Program, sess *Session, conf Config) map[string]core.Result {
	return solveAll(t, driver.ClientByName("escape"), p, sess, conf)
}

func solveAll(t *testing.T, c *driver.ClientSpec, p *driver.Program, sess *Session, conf Config) map[string]core.Result {
	t.Helper()
	out := map[string]core.Result{}
	for i, q := range c.Queries(p) {
		q := q
		if r, ok := sess.Replay(q.Key); ok {
			out[q.Key] = r
			continue
		}
		r, err := core.Solve(c.Job(p, i, conf.K), core.Options{
			MaxIters: conf.MaxIters,
			Seed:     sess.SeedFor(q.Key),
			OnLearn: func(_ int, _ uset.Set, tr lang.Trace, cubes []core.ParamCube) {
				sess.RecordLearn(q.Key, tr, cubes)
			},
		})
		if err != nil {
			t.Fatalf("query %s: %v", q.ID, err)
		}
		sess.RecordResult(q.Key, r)
		out[q.Key] = r
	}
	return out
}

func wantSame(t *testing.T, cold, warm map[string]core.Result, context string) {
	t.Helper()
	if len(cold) != len(warm) {
		t.Fatalf("%s: query counts differ: %d vs %d", context, len(cold), len(warm))
	}
	for k, c := range cold {
		w, ok := warm[k]
		if !ok {
			t.Fatalf("%s: missing %s", context, k)
		}
		if w.Status != c.Status || !w.Abstraction.Equal(c.Abstraction) {
			t.Fatalf("%s: %s diverged: warm %v/%v cold %v/%v",
				context, k, w.Status, w.Abstraction, c.Status, c.Abstraction)
		}
	}
}

func tsConf(maxIters int) Config {
	return Config{Client: Typestate, K: 2, MaxIters: maxIters}
}

func TestWarmRoundTrip(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)

	p1 := load(t, progBase)
	st1 := Open(dir, nil)
	s1 := st1.Session(p1, conf)
	if s1.Exact() {
		t.Fatal("fresh store claims exact match")
	}
	cold := solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// A separate Open models a process restart.
	p2 := load(t, progBase)
	s2 := Open(dir, nil).Session(p2, conf)
	if !s2.Exact() {
		t.Fatal("identical program did not match exactly")
	}
	warm := solveTS(t, p2, s2, conf)
	wantSame(t, cold, warm, "round-trip")
	for k, w := range warm {
		if w.Iterations > 2 {
			t.Errorf("warm query %s took %d iterations", k, w.Iterations)
		}
	}
}

func TestWarmRoundTripEscape(t *testing.T) {
	dir := t.TempDir()
	conf := Config{Client: Escape, K: 2, MaxIters: 50}
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveEsc(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	p2 := load(t, progBase)
	s2 := Open(dir, nil).Session(p2, conf)
	warm := solveEsc(t, p2, s2, conf)
	wantSame(t, cold, warm, "escape round-trip")
	for k, w := range warm {
		if w.Iterations > 2 {
			t.Errorf("warm query %s took %d iterations", k, w.Iterations)
		}
	}
}

func TestWarmDeltaInvalidation(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}

	// Re-solve the edited program warm: the session must not be exact, but
	// surviving clauses must keep results identical to a cold solve of the
	// edited program.
	pEdit := load(t, progEditNeutral)
	sWarm := Open(dir, nil).Session(pEdit, conf)
	if sWarm.Exact() {
		t.Fatal("edited program matched exactly")
	}
	warm := solveTS(t, pEdit, sWarm, conf)

	pEditCold := load(t, progEditNeutral)
	sCold := Open(t.TempDir(), nil).Session(pEditCold, conf)
	cold := solveTS(t, pEditCold, sCold, conf)
	wantSame(t, cold, warm, "delta edit")

	// The pts-neutral edit kills only clauses supported by Helper.work;
	// at least one clause of another method must have survived and seeded.
	survived := 0
	for _, e := range sWarm.entries {
		survived += len(e.Clauses)
	}
	if survived == 0 {
		t.Log("no clauses survived the edit (all traces pass through Helper.work)")
	}
}

func TestWarmShapeChangeGoesCold(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	p2 := load(t, progShape)
	s2 := Open(dir, nil).Session(p2, conf)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatalf("shape change reused state: exact=%v entries=%d", s2.Exact(), len(s2.entries))
	}
}

func TestWarmConfigMismatchGoesCold(t *testing.T) {
	dir := t.TempDir()
	p1 := load(t, progBase)
	conf := Config{Client: Typestate, K: 2, MaxIters: 50}
	s1 := Open(dir, nil).Session(p1, conf)
	solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	other := Config{Client: Typestate, K: 3, MaxIters: 50}
	s2 := Open(dir, nil).Session(load(t, progBase), other)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatal("k mismatch reused state")
	}
}

func TestWarmExhaustedReplay(t *testing.T) {
	dir := t.TempDir()
	// MaxIters 1 exhausts every query needing refinement.
	conf := tsConf(1)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	exhausted := 0
	for _, r := range cold {
		if r.Status == core.Exhausted {
			exhausted++
		}
	}
	if exhausted == 0 {
		t.Fatal("test premise broken: nothing exhausted at MaxIters=1")
	}

	s2 := Open(dir, nil).Session(load(t, progBase), conf)
	replayed := 0
	for _, q := range driver.ClientByName("typestate").Queries(load(t, progBase)) {
		if r, ok := s2.Replay(q.Key); ok {
			replayed++
			if r.Status != core.Exhausted {
				t.Fatalf("replayed non-exhausted status %v", r.Status)
			}
		}
	}
	if replayed != exhausted {
		t.Fatalf("replayed %d of %d exhausted queries", replayed, exhausted)
	}

	// A different iteration budget must not replay.
	s3 := Open(dir, nil).Session(load(t, progBase), tsConf(2))
	if _, ok := s3.Replay(driver.ClientByName("typestate").Queries(load(t, progBase))[0].Key); ok {
		t.Fatal("replayed across a budget change")
	}
}

func TestWarmCorruptionFallsBackCold(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p1 := load(t, progBase)
	s1 := Open(dir, nil).Session(p1, conf)
	cold := solveTS(t, p1, s1, conf)
	if err := s1.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 1 {
		t.Fatalf("want 1 snapshot, got %d", len(files))
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Truncation: mid-file cut breaks the JSON.
	orig, _ := os.ReadFile(files[0])
	corrupt(files[0], func(b []byte) []byte { return b[:len(b)/2] })
	s2 := Open(dir, nil).Session(load(t, progBase), conf)
	if s2.Exact() || len(s2.entries) != 0 {
		t.Fatal("truncated snapshot was trusted")
	}
	warm := solveTS(t, load(t, progBase), s2, conf)
	wantSame(t, cold, warm, "truncated store")

	// Bit flip inside the JSON body.
	corrupt(files[0], func([]byte) []byte {
		b := append([]byte(nil), orig...)
		b[len(b)/3] ^= 0x40
		return b
	})
	s3 := Open(dir, nil).Session(load(t, progBase), conf)
	warm3 := solveTS(t, load(t, progBase), s3, conf)
	wantSame(t, cold, warm3, "bit-flipped store")

	// Version mismatch: valid JSON, wrong schema version.
	corrupt(files[0], func([]byte) []byte {
		return []byte(strings.Replace(string(orig), `"version": 1`, `"version": 99`, 1))
	})
	s4 := Open(dir, nil).Session(load(t, progBase), conf)
	if s4.Exact() || len(s4.entries) != 0 {
		t.Fatal("version-mismatched snapshot was trusted")
	}
}

func TestWarmDisabledStore(t *testing.T) {
	conf := tsConf(50)
	p := load(t, progBase)
	s := Open("", nil).Session(p, conf)
	cold := solveTS(t, p, s, conf)
	if err := s.Save(); err != nil {
		t.Fatalf("disabled save: %v", err)
	}
	if len(cold) == 0 {
		t.Fatal("no queries solved")
	}
}
