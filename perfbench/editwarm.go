package main

import (
	"context"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/lang"
	"tracer/internal/warm"
)

// editWarm is the edit-warm workload: a chain of single-statement edits of
// hedc, every step reloaded with driver.Load and re-solved per query with
// core.Solve, seeded from a warm store that starts empty at each pass.
type editWarm struct {
	seed  int64
	refs  *refStore
	root  string // parent of the per-pass store directories
	srcs  []string
	steps []*loaded // loaded at set-up, for the checks
	n     int       // passes made, names the next store directory
}

func (w *editWarm) sequential() bool { return true }

// warmup: the first edit-warm pass of a run was 3-17% slower than the
// later ones in most runs, with no steal to explain it; the other workloads
// show no such first-pass effect.
func (w *editWarm) warmup() bool { return true }

func stepName(i int) string   { return fmt.Sprintf("hedc+e%d", i) }
func stepPrefix(i int) string { return fmt.Sprintf("e%d/", i) }

func (w *editWarm) setup(r *runCtx, parent int32) error {
	var cfg bench.Config
	salt := int64(0)
	for i, c := range bench.Suite() {
		if c.Name == "hedc" {
			cfg, salt = c, int64(i)
		}
	}
	w.srcs, _ = bench.EditChain(cfg, editSteps)
	rename := renamer(w.seed, salt, w.srcs...)
	for i := range w.srcs {
		w.srcs[i] = rename(w.srcs[i])
	}
	w.steps = w.steps[:0]
	for i, src := range w.srcs {
		l, err := load(stepName(i), src, stepPrefix(i), r, parent)
		if err != nil {
			return err
		}
		w.steps = append(w.steps, l)
	}
	return nil
}

func (w *editWarm) pass(ctx context.Context, r *runCtx, parent int32) ([]outcome, error) {
	dir := filepath.Join(w.root, fmt.Sprintf("pass%d", w.n))
	w.n++
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	id := r.tr.begin("warm.open", parent, "")
	st := warm.Open(dir, nil)
	r.tr.end(id)
	if !st.Enabled() {
		return nil, fmt.Errorf("warm store %s could not be opened", dir)
	}
	var out []outcome
	for i, src := range w.srcs {
		l, err := load(stepName(i), src, stepPrefix(i), r, parent)
		if err != nil {
			return nil, err
		}
		for gi, g := range l.groups {
			res, err := solveWarm(ctx, st, l, g, i > 0, r, parent)
			if err != nil {
				return nil, err
			}
			// The outcomes point at the set-up's load of the same text, so
			// the checks use it and the pass's own programs are garbage
			// once the pass ends. Kept, they made every pass's resident set
			// include the programs of the passes before it.
			for j := range res {
				res[j].q = w.steps[i].groups[gi].queries[j]
			}
			out = append(out, res...)
		}
	}
	size, err := dirBytes(dir)
	if err != nil {
		return nil, err
	}
	r.warm.storeBytes += size
	return out, nil
}

// solveWarm solves one client's queries of one step through a store session.
// edited marks a step after the first.
func solveWarm(ctx context.Context, st *warm.Store, l *loaded, g *group, edited bool, r *runCtx, parent int32) ([]outcome, error) {
	id := r.tr.begin("warm.session_open", parent, g.name)
	sess := st.Session(l.prog, warm.Config{Client: warm.Client(g.spec.Name), K: beamK, MaxIters: maxIters})
	r.tr.end(id)
	r.warm.opens++
	out := make([]outcome, 0, len(g.queries))
	for _, q := range g.queries {
		start := time.Now()
		id := r.tr.begin("warm.seed", parent, q.key)
		seed := sess.SeedFor(q.wkey)
		r.tr.end(id)
		r.warm.seeded += len(seed)
		wh := &warmHooks{seed: seed, onLearn: func(parent int32, t lang.Trace, cubes []core.ParamCube) {
			id := r.tr.begin("warm.record", parent, q.key)
			sess.RecordLearn(q.wkey, t, cubes)
			r.tr.end(id)
		}}
		o, res := solveOne(ctx, q, wh, r, parent)
		id = r.tr.begin("warm.record", parent, q.key)
		sess.RecordResult(q.wkey, res)
		r.tr.end(id)
		o.start, o.ms = start, msSince(start)
		out = append(out, o)
		if edited {
			r.warm.editedQueries++
			if res.Iterations <= 1 {
				r.warm.oneIter++
			}
		}
	}
	id = r.tr.begin("warm.save", parent, g.name)
	err := sess.Save()
	r.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("%s: saving the warm store: %w", g.name, err)
	}
	return out, nil
}

// verify checks the proved abstractions, then that every query a cold batch
// solve decides gets the same verdict warm. Cold-exhausted queries are
// exempt: surviving clauses may let the warm solve finish within the cap.
func (w *editWarm) verify(ctx context.Context, r *runCtx, got []outcome) error {
	if err := checkAllProved(got); err != nil {
		return err
	}
	decided := func(v verdict) bool {
		return v.Status == core.Proved.String() || v.Status == core.Impossible.String()
	}
	return w.refs.crossCheck(w.seed, "edit-warm", []string{"edit-cold"}, verdictsOf(got), decided, "edit-cold",
		func() ([]verdict, error) {
			var groups []*group
			for _, l := range w.steps {
				groups = append(groups, l.groups...)
			}
			return batchReference(ctx, groups, r.workers)
		})
}

func (w *editWarm) close() { os.RemoveAll(w.root) }

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}
