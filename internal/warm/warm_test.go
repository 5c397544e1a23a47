package warm

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/ir"
	"tracer/internal/lang"
	"tracer/internal/obs"
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

// progIdle extends progBase with a call, after every other statement of
// main, to a method that no other query's trace passes through;
// progIdleEdit edits that method's body without changing any points-to set
// outside it, so the clauses not supported by Other.idle survive the edit.
var progIdle = strings.Replace(strings.Replace(progBase, "var a, b, t\n", "var a, b, t, o\n", 1),
	"    a.f = t\n", "    a.f = t\n    o = new Other @ h4\n    o.idle()\n", 1) + `
class Other {
  method idle(this) {
    var z
    z = new Main @ h5
    return
  }
}
`

var progIdleEdit = strings.Replace(progIdle, "z = new Main @ h5\n", "z = new Main @ h5\n    z = this\n", 1)

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

	// Version mismatch: valid JSON, wrong schema version. The needle is
	// derived from Version and the compact header encoding, and the
	// mutation must change the file, so the check cannot pass vacuously.
	needle := fmt.Sprintf(`"version":%d,`, Version)
	mutated := strings.Replace(string(orig), needle, `"version":99,`, 1)
	if mutated == string(orig) {
		t.Fatalf("version mutation did not change the snapshot (no %s)", needle)
	}
	corrupt(files[0], func([]byte) []byte { return []byte(mutated) })
	s4 := Open(dir, nil).Session(load(t, progBase), conf)
	if s4.Exact() || len(s4.entries) != 0 {
		t.Fatal("version-mismatched snapshot was trusted")
	}

	// A null entry in an otherwise valid body is skipped, not dereferenced.
	corrupt(files[0], func([]byte) []byte { return orig })
	line, err := readHeaderLine(files[0])
	if err != nil {
		t.Fatal(err)
	}
	intact := Open(dir, nil).Session(load(t, progBase), conf)
	corrupt(files[0], func([]byte) []byte {
		return append([]byte(string(line)+`{"null":null,`), orig[len(line)+1:]...)
	})
	s5 := Open(dir, nil).Session(load(t, progBase), conf)
	if !s5.Exact() || !reflect.DeepEqual(s5.entries, intact.entries) {
		t.Fatalf("null entry: exact=%v, %d entries, want exact and %d", s5.Exact(), len(s5.entries), len(intact.entries))
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

// saveSession opens a session for src in dir, solves every query of its
// client through it, and saves it.
func saveSession(t *testing.T, dir, src string, conf Config) *driver.Program {
	t.Helper()
	p := load(t, src)
	s := Open(dir, nil).Session(p, conf)
	solveAll(t, driver.ClientByName(string(conf.Client)), p, s, conf)
	if err := s.Save(); err != nil {
		t.Fatalf("save: %v", err)
	}
	return p
}

// snapshotOf returns the path of p's snapshot under conf in dir.
func snapshotOf(dir string, p *driver.Program, conf Config) string {
	return Open(dir, nil).snapshotPath(ir.Fingerprint(p.IR).Whole, string(conf.Client), confSignature(p, conf))
}

// cutAfterHeader truncates a snapshot file to its header line plus the
// first keep bytes of its body.
func cutAfterHeader(t *testing.T, name string, keep int) {
	t.Helper()
	line, err := readHeaderLine(name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, data[:len(line)+keep], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestWarmSessionReadsOneBody pins the read path: a session decodes the
// body of the snapshot it picks and nothing else. Every other same-client
// snapshot is cut right after its header line, and the files of another
// client (or another configuration) hold garbage; the session must still
// load exactly the entries of an untouched store, with no file counted
// corrupt.
func TestWarmSessionReadsOneBody(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	esc := Config{Client: Escape, K: 2, MaxIters: 50}
	saveSession(t, dir, progBase, conf)
	pEdit := saveSession(t, dir, progEditNeutral, conf)
	saveSession(t, dir, progBase, esc)
	saveSession(t, dir, progEditNeutral, esc)
	otherConf := filepath.Join(dir, fmt.Sprintf("%016x-typestate-%08x.json", 1, fnvString("typestate|k=7")))
	if err := os.WriteFile(otherConf, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	want := Open(dir, nil).Session(load(t, progEditNeutral), conf)
	if !want.Exact() || len(want.entries) == 0 {
		t.Fatalf("test premise broken: exact=%v entries=%d", want.Exact(), len(want.entries))
	}
	chosen := snapshotOf(dir, pEdit, conf)
	files, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(files) != 5 {
		t.Fatalf("want 5 snapshot files, got %d", len(files))
	}
	for _, name := range files {
		switch {
		case name == chosen || name == otherConf:
		case strings.Contains(filepath.Base(name), "-typestate-"):
			cutAfterHeader(t, name, 0)
		default:
			if err := os.WriteFile(name, []byte("\x00garbage{"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	agg := obs.NewAgg()
	got := Open(dir, agg).Session(load(t, progEditNeutral), conf)
	if !got.Exact() || !reflect.DeepEqual(got.entries, want.entries) {
		t.Fatalf("session over the damaged store: exact=%v, %d entries, want exact and the %d entries of the intact store",
			got.Exact(), len(got.entries), len(want.entries))
	}
	if n := agg.Counter(obs.WarmEntriesCorrupt); n != 0 {
		t.Fatalf("%d files counted corrupt; a session must read no body but the chosen one", n)
	}
	if n := agg.Counter(obs.WarmSnapshots); n != 2 {
		t.Fatalf("%d snapshot headers considered, want the 2 same-client ones", n)
	}
	if n := agg.Timer(obs.WarmLoad).Count; n != 1 {
		t.Fatalf("warm.load observed %d times for one session", n)
	}
	if err := got.Save(); err != nil {
		t.Fatal(err)
	}
	if n := agg.Timer(obs.WarmSave).Count; n != 1 {
		t.Fatalf("warm.save observed %d times for one save", n)
	}
}

// TestWarmFallsBackToNextNearest cuts the body of the nearest snapshot: the
// session must count it corrupt, load the next-nearest one instead (here
// the pre-edit snapshot, exactly as a store holding only that one would),
// and still give cold verdicts.
func TestWarmFallsBackToNextNearest(t *testing.T) {
	dir, onlyBase := t.TempDir(), t.TempDir()
	conf := tsConf(50)
	pBase := saveSession(t, dir, progIdle, conf)
	data, err := os.ReadFile(snapshotOf(dir, pBase, conf))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapshotOf(onlyBase, pBase, conf), data, 0o644); err != nil {
		t.Fatal(err)
	}
	pEdit := saveSession(t, dir, progIdleEdit, conf)
	cutAfterHeader(t, snapshotOf(dir, pEdit, conf), 10)

	agg := obs.NewAgg()
	got := Open(dir, agg).Session(load(t, progIdleEdit), conf)
	if got.Exact() {
		t.Fatal("the cut exact snapshot was trusted")
	}
	if n := agg.Counter(obs.WarmEntriesCorrupt); n != 1 {
		t.Fatalf("%d files counted corrupt, want 1", n)
	}
	want := Open(onlyBase, nil).Session(load(t, progIdleEdit), conf)
	if len(want.entries) == 0 {
		t.Fatal("test premise broken: no entry of the pre-edit snapshot survives the edit")
	}
	if !reflect.DeepEqual(got.entries, want.entries) {
		t.Fatalf("fallback loaded %d entries, the next-nearest snapshot alone gives %d", len(got.entries), len(want.entries))
	}
	warm := solveTS(t, load(t, progIdleEdit), got, conf)
	cold := solveTS(t, load(t, progIdleEdit), Open("", nil).Session(load(t, progIdleEdit), conf), conf)
	wantSame(t, cold, warm, "fallback")
}

// TestWarmVersion1GoesCold rewrites a snapshot in the version-1 layout (one
// indented JSON object holding header fields and queries alike): it is
// ignored, counted corrupt, and the session solves cold.
func TestWarmVersion1GoesCold(t *testing.T) {
	dir := t.TempDir()
	conf := tsConf(50)
	p := saveSession(t, dir, progBase, conf)
	name := snapshotOf(dir, p, conf)
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	line, _ := readHeaderLine(name)
	v1 := map[string]any{}
	if err := json.Unmarshal(line, &v1); err != nil {
		t.Fatal(err)
	}
	v1["version"] = 1
	v1["queries"] = json.RawMessage(data[len(line):])
	old, err := json.MarshalIndent(v1, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, old, 0o644); err != nil {
		t.Fatal(err)
	}
	agg := obs.NewAgg()
	s := Open(dir, agg).Session(load(t, progBase), conf)
	if s.Exact() || len(s.entries) != 0 {
		t.Fatalf("version-1 snapshot was used: exact=%v entries=%d", s.Exact(), len(s.entries))
	}
	if n := agg.Counter(obs.WarmEntriesCorrupt); n != 1 {
		t.Fatalf("%d files counted corrupt, want 1", n)
	}
}

// TestWarmTimersNopAllocFree pins the store's timers to no allocation when
// the recorder is obs.Nop.
func TestWarmTimersNopAllocFree(t *testing.T) {
	st := Open(t.TempDir(), obs.Nop{})
	start := time.Now()
	if n := testing.AllocsPerRun(100, func() { st.since(obs.WarmLoad, start) }); n != 0 {
		t.Fatalf("timer on obs.Nop allocates %v times per call", n)
	}
}
