package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tracer/internal/core"
	"tracer/internal/uset"
)

// verdict is the part of a query's outcome the benchmark locks: a query is
// only faster if it reaches the same verdict. Key names the query within the
// workload (program, client and the query's position-independent key).
type verdict struct {
	Key    string
	Status string
	Cost   int
	Abs    string // parameter names of the proving abstraction, index order
}

func (v verdict) String() string {
	return fmt.Sprintf("%s|%s|%d|%s", v.Key, v.Status, v.Cost, v.Abs)
}

// absNames renders an abstraction with the client's parameter names, the
// form the server puts on the wire.
func absNames(names []string, a uset.Set) string {
	out := make([]string, 0, a.Len())
	for _, i := range a.Elems() {
		out = append(out, names[i])
	}
	return strings.Join(out, ",")
}

// absSet is the inverse of absNames.
func absSet(names, abs []string) uset.Set {
	idx := make(map[string]int, len(names))
	for i, n := range names {
		idx[n] = i
	}
	ids := make([]int, 0, len(abs))
	for _, n := range abs {
		ids = append(ids, idx[n])
	}
	return uset.New(ids...)
}

func verdictOf(key string, names []string, r core.Result) verdict {
	v := verdict{Key: key, Status: r.Status.String()}
	if r.Status == core.Proved {
		v.Cost = r.Abstraction.Len()
		v.Abs = absNames(names, r.Abstraction)
	}
	return v
}

// digest hashes a workload's verdicts independently of their order.
func digest(vs []verdict) string {
	lines := make([]string, len(vs))
	for i, v := range vs {
		lines[i] = v.String()
	}
	sort.Strings(lines)
	h := sha256.New()
	for _, l := range lines {
		h.Write([]byte(l))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// tally counts verdicts by status.
type tally struct{ proved, impossible, exhausted, failed int }

func tallyOf(vs []verdict) tally {
	var t tally
	for _, v := range vs {
		switch v.Status {
		case core.Proved.String():
			t.proved++
		case core.Impossible.String():
			t.impossible++
		case core.Exhausted.String():
			t.exhausted++
		default:
			t.failed++
		}
	}
	return t
}

func (t tally) String() string {
	return fmt.Sprintf("proved %d, impossible %d, exhausted %d, failed %d",
		t.proved, t.impossible, t.exhausted, t.failed)
}

// compareVerdicts reports the first difference between two verdict sets
// over the same queries, or nil. only, when non-nil, restricts the
// comparison to the reference verdicts it accepts.
func compareVerdicts(what string, got, ref []verdict, only func(verdict) bool) error {
	byKey := make(map[string]verdict, len(got))
	for _, v := range got {
		byKey[v.Key] = v
	}
	if len(byKey) != len(ref) {
		return fmt.Errorf("%s: %d queries answered, reference has %d", what, len(byKey), len(ref))
	}
	for _, r := range ref {
		g, ok := byKey[r.Key]
		if !ok {
			return fmt.Errorf("%s: query %s missing", what, r.Key)
		}
		if (only == nil || only(r)) && g != r {
			return fmt.Errorf("%s: query verdict %s, reference %s", what, g, r)
		}
	}
	return nil
}

// checkProved re-runs the forward analysis of every Proved verdict cold, on a
// job built fresh from the registry, and fails unless it proves the query
// under the reported abstraction.
func checkProved(q *query, abs uset.Set) error {
	if !q.spec.Job(q.prog, q.idx, beamK).Forward(nil, abs).Proved {
		return fmt.Errorf("%s: a fresh cold forward run does not prove the reported abstraction %s",
			q.key, abs)
	}
	return nil
}

// refStore keeps the verdicts of one benchmark build per seed and workload,
// so that runs of different workloads on the same seed check each other:
// suite-solve, suite-batch and serve must agree query by query. The store is
// keyed by a hash of the benchmark binary, so two builds never mix.
type refStore struct{ dir string }

func openRefStore(outDir string) (*refStore, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return nil, err
	}
	return &refStore{dir: filepath.Join(outDir, "verdicts", hex.EncodeToString(h.Sum(nil))[:16])}, nil
}

func (s *refStore) path(seed int64, name string) string {
	return filepath.Join(s.dir, fmt.Sprintf("seed%d-%s.jsonl", seed, name))
}

func (s *refStore) load(seed int64, name string) ([]verdict, bool, error) {
	data, err := os.ReadFile(s.path(seed, name))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var vs []verdict
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		var v verdict
		if err := dec.Decode(&v); err != nil {
			return nil, false, fmt.Errorf("%s: %w", s.path(seed, name), err)
		}
		vs = append(vs, v)
	}
	return vs, true, nil
}

// save writes the verdicts through a temporary file, so a reader never sees
// a partial list.
func (s *refStore) save(seed int64, name string, vs []verdict) error {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	tmp := s.path(seed, name) + ".tmp"
	if err := os.WriteFile(tmp, b.Bytes(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path(seed, name))
}

// crossCheck compares a run's verdicts with those every other workload of
// its family recorded for the seed. When none has, and compute is non-nil,
// it computes the family's reference itself and records it under refName.
// only restricts the comparison as in compareVerdicts. The run's own
// verdicts are recorded once they pass.
func (s *refStore) crossCheck(seed int64, self string, family []string, got []verdict, only func(verdict) bool,
	refName string, compute func() ([]verdict, error)) error {
	compared := false
	for _, other := range family {
		if other == self {
			continue
		}
		ref, ok, err := s.load(seed, other)
		if err != nil {
			return err
		}
		if ok {
			if err := compareVerdicts(self+" vs "+other, got, ref, only); err != nil {
				return err
			}
			compared = true
		}
	}
	if !compared && compute != nil {
		ref, err := compute()
		if err != nil {
			return err
		}
		if err := s.save(seed, refName, ref); err != nil {
			return err
		}
		if err := compareVerdicts(self+" vs "+refName, got, ref, only); err != nil {
			return err
		}
	}
	return s.save(seed, self, got)
}
