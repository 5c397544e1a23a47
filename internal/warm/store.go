// Package warm implements a persistent, content-addressed warm-start store
// for the TRACER solver. A store directory holds one snapshot file per
// (program fingerprint, client, configuration): the learned blocking clauses
// and final verdict of every query solved against that program. A later
// process re-solving the same — or a slightly edited — program opens a
// Session, which finds the nearest snapshot by IR fingerprint, invalidates
// exactly the clauses the edit could have broken, and seeds the survivors
// into the solver before iteration 1.
//
// # Soundness
//
// A stored clause blocks a cube of abstractions that a previous backward
// meta-analysis proved failing, justified by one counterexample trace t.
// Seeding it into a solve over program P' is sound iff the cube still
// contains only failing abstractions there, which holds when t remains a
// feasible trace of P' with the same weakest-precondition chain:
//
//  1. the declaration shape (globals, hierarchy, fields, signatures,
//     native-ness) is unchanged — otherwise lowering may resolve calls
//     differently everywhere (snapshot-level check);
//  2. every method supporting t (the methods owning t's atoms and the
//     allocation sites t mentions) has an identical body fingerprint
//     (per-clause check against the IR diff);
//  3. the points-to environment of the supporting methods is unchanged
//     (per-clause hash) — t's call branches were chosen by those sets, and
//     the type-state MayPoint oracle reads them;
//  4. the client configuration (k, and for type-state the stress property's
//     method list) is unchanged (snapshot-level check);
//  5. every parameter name in the cube still exists in the new parameter
//     universe (clauses are stored by name and remapped to indices at
//     load; a vanished name kills the clause).
//
// By induction along t each atom's edge still exists in the lowered P', so
// the trace replays and the meta-analysis would re-derive the same cubes.
//
// Verdicts are never trusted across an edit. On a byte-exact fingerprint
// match, Proved/Impossible verdicts are still re-established by the solver
// (the seeded clause set makes that 1 and 0 forward runs respectively);
// only Exhausted verdicts are replayed without solving, and only when the
// stored iteration cap and timeout equal the current ones — re-burning a
// full timeout per already-known-hopeless query would erase the warm win.
//
// # Layout
//
// A snapshot file is named <whole>-<client>-<fnv(conf)>.json and holds two
// lines of compact JSON (schema Version 2): a header line with the schema
// version, the program's whole and shape fingerprints, its per-method body
// fingerprints, the client and the config signature; then the body, which
// maps each query key to its stored entry. A session lists the candidate
// files of its client and configuration by file name, ranks them on their
// header lines alone, and decodes one body: the nearest snapshot's, or,
// when that one is unreadable, the next-nearest's. Other clients' files are
// never opened. Files of other versions, version 1's single indented object
// included, are skipped.
//
// Everything read from disk is untrusted: unparseable files, version
// mismatches, unknown statuses, and unknown parameter names degrade to a
// cold solve (counted on warm.entries_corrupt / warm.clauses_invalidated),
// never to an error.
package warm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"tracer/internal/obs"
)

// Version is the snapshot schema version; files with any other version are
// ignored (cold fallback), never migrated.
const Version = 2

// Store is a handle on a warm-start directory. The zero value (and any Open
// failure) is a disabled store whose Sessions are all-cold no-ops.
type Store struct {
	dir string
	rec obs.Recorder
}

// Open returns a store rooted at dir, creating it if needed. Open never
// fails hard: on error the returned store is disabled and every session
// behaves cold. rec (nil ok) receives the warm.* counters and timers.
func Open(dir string, rec obs.Recorder) *Store {
	st := &Store{rec: rec}
	if dir == "" {
		return st
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return st
	}
	st.dir = dir
	return st
}

// Enabled reports whether the store has a usable directory.
func (st *Store) Enabled() bool { return st != nil && st.dir != "" }

func (st *Store) count(name string, n int64) {
	if st != nil && st.rec != nil && n != 0 {
		st.rec.Count(name, n)
	}
}

// since records the time elapsed from start on the named timer.
func (st *Store) since(name string, start time.Time) {
	if st != nil && st.rec != nil {
		st.rec.Timing(name, time.Since(start))
	}
}

// snapshotHeader is the first line of a snapshot file: everything a session
// needs to decide whether, and how closely, the snapshot fits its program.
// The second line, the body, maps each position-independent query key to
// its entry.
type snapshotHeader struct {
	Version int    `json:"version"`
	Whole   string `json:"whole"` // hex ir.ProgramFP.Whole
	Shape   string `json:"shape"` // hex ir.ProgramFP.Shape
	// Methods maps QualName → hex body fingerprint, for delta matching.
	Methods map[string]string `json:"methods"`
	Client  string            `json:"client"`
	Conf    string            `json:"conf"` // client config signature
}

// queryEntry is one query's persisted outcome.
type queryEntry struct {
	// Status is "proved", "impossible", or "exhausted" (failed queries are
	// never persisted).
	Status     string `json:"status"`
	Iterations int    `json:"iters"`
	// MaxIters/TimeoutMS record the budget the entry was solved under;
	// Exhausted entries are only replayed under the identical budget.
	MaxIters  int   `json:"maxIters"`
	TimeoutMS int64 `json:"timeoutMS"`
	// Abs is the proving abstraction by parameter name (diagnostic only —
	// warm solves re-derive it from the seeded clauses).
	Abs     []string       `json:"abs,omitempty"`
	Clauses []storedClause `json:"clauses,omitempty"`
}

// storedClause is one blocking cube by parameter name, with its validity
// guard: the methods supporting the justifying trace and the hex points-to
// environment hash of those methods at learn time.
type storedClause struct {
	Pos     []string `json:"pos,omitempty"`
	Neg     []string `json:"neg,omitempty"`
	Support []string `json:"support"`
	Env     string   `json:"env"`
}

// cubeKey canonically renders a stored clause for deduplication.
func (c storedClause) cubeKey() string {
	return strings.Join(c.Pos, ",") + "|" + strings.Join(c.Neg, ",")
}

func hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// snapshotPath names the file for one (program, client, conf) snapshot.
func (st *Store) snapshotPath(whole uint64, client, conf string) string {
	return filepath.Join(st.dir, fmt.Sprintf("%s-%s-%08x.json", hex64(whole), client, fnvString(conf)))
}

// clientPattern globs every snapshot file of one client+conf, whatever its
// program fingerprint.
func (st *Store) clientPattern(client, conf string) string {
	return filepath.Join(st.dir, fmt.Sprintf("*-%s-%08x.json", client, fnvString(conf)))
}

func fnvString(s string) uint32 {
	const offset, prime = 2166136261, 16777619
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	return h
}

// candidate is a snapshot file known by its header line alone.
type candidate struct {
	path string
	line []byte // the header line as read, newline included
	head snapshotHeader
}

// candidates reads the header line of every snapshot file named for client
// under conf, in file-name order, skipping (and counting) the files whose
// header is unreadable or of another version. No body is read, and no file
// of another client or configuration is opened.
func (st *Store) candidates(client, conf string) []candidate {
	if !st.Enabled() {
		return nil
	}
	names, err := filepath.Glob(st.clientPattern(client, conf))
	if err != nil {
		return nil
	}
	sort.Strings(names)
	var out []candidate
	for _, name := range names {
		c := candidate{path: name}
		var err error
		if c.line, err = readHeaderLine(name); err == nil {
			err = json.Unmarshal(c.line, &c.head)
		}
		if err != nil || c.head.Version != Version {
			st.count(obs.WarmEntriesCorrupt, 1)
			continue
		}
		out = append(out, c)
	}
	return out
}

// readHeaderLine reads a file up to and including its first newline.
func readHeaderLine(name string) ([]byte, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return bufio.NewReader(f).ReadBytes('\n')
}

// readBody decodes the queries of a candidate. The file must still begin
// with the header line the candidate was ranked by: a file replaced since
// (by a concurrent writer) is inconsistent, like a truncated one.
func (st *Store) readBody(c candidate) (map[string]*queryEntry, error) {
	data, err := os.ReadFile(c.path)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, c.line) {
		return nil, fmt.Errorf("%s: header changed since it was read", c.path)
	}
	var queries map[string]*queryEntry
	if err := json.Unmarshal(data[len(c.line):], &queries); err != nil {
		return nil, err
	}
	return queries, nil
}

// writeSnapshot atomically persists a snapshot — the compact header line,
// then the compact queries body — and prunes stale snapshots of the same
// client+conf beyond a small budget (oldest fingerprints first by
// modification time), so edit chains do not grow the directory unboundedly.
func (st *Store) writeSnapshot(whole uint64, h *snapshotHeader, queries map[string]*queryEntry) error {
	if !st.Enabled() {
		return nil
	}
	head, err := json.Marshal(h)
	if err != nil {
		return err
	}
	body, err := json.Marshal(queries)
	if err != nil {
		return err
	}
	data := append(append(head, '\n'), append(body, '\n')...)
	path := st.snapshotPath(whole, h.Client, h.Conf)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	st.prune(h.Client, h.Conf, path)
	return nil
}

// maxSnapshots bounds how many snapshots one client+conf keeps on disk.
const maxSnapshots = 16

func (st *Store) prune(client, conf string, keep string) {
	names, err := filepath.Glob(st.clientPattern(client, conf))
	if err != nil || len(names) <= maxSnapshots {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, name := range names {
		if name == keep {
			continue
		}
		fi, err := os.Stat(name)
		if err != nil {
			continue
		}
		files = append(files, aged{name, fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for i := 0; i+maxSnapshots <= len(files); i++ {
		os.Remove(files[i].name)
	}
}
