package bench

import (
	"reflect"
	"testing"

	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestBatchMatchesIndividual: the §6 query-grouping driver must resolve
// every query to the same status and cheapest-abstraction size as running
// TRACER per query, while performing fewer forward runs than the total of
// the individual iterations.
func TestBatchMatchesIndividual(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	opts := RunOptions{K: 5, MaxIters: 300, MaxQueries: 20}
	for _, cl := range []Client{Typestate, Escape} {
		ind, err := Run(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := RunBatch(b, cl, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Results) != len(ind.Outcomes) {
			t.Fatalf("%s: %d batch results vs %d individual", cl, len(batch.Results), len(ind.Outcomes))
		}
		totalIndividualIters := 0
		for q, o := range ind.Outcomes {
			br := batch.Results[q]
			if br.Status != o.Status {
				t.Errorf("%s query %s: batch %v vs individual %v", cl, o.ID, br.Status, o.Status)
			}
			if o.Status == core.Proved && br.Abstraction.Len() != o.AbsSize {
				t.Errorf("%s query %s: batch |p|=%d vs individual %d", cl, o.ID, br.Abstraction.Len(), o.AbsSize)
			}
			totalIndividualIters += o.Iterations
		}
		if batch.Stats.ForwardRuns >= totalIndividualIters {
			t.Errorf("%s: grouping gave no sharing: %d forward runs vs %d individual iterations",
				cl, batch.Stats.ForwardRuns, totalIndividualIters)
		}
		t.Logf("%-13s batch forward runs %d vs individual iterations %d (groups: %d)",
			cl, batch.Stats.ForwardRuns, totalIndividualIters, batch.Stats.TotalGroups)
	}
}

// TestOneQueryBatchDonatesEveryRun: a one-query batch — tracerd's round on
// an idle server — can never hit its forward memo exactly, so every run
// after the first must resume the previous one, as the single-query job
// chain does, and resolve exactly as the batch without delta resumption.
func TestOneQueryBatchDonatesEveryRun(t *testing.T) {
	b := MustLoad(Suite()[0]) // tsp
	for _, spec := range driver.Clients() {
		for i, q := range spec.Queries(b.Prog) {
			solve := func(noDelta bool) *core.BatchResult {
				res, err := core.SolveBatch(spec.Batch(b.Prog, []int{i}, 5),
					core.Options{MaxIters: 300, NoDelta: noDelta})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			got, want := solve(false), solve(true)
			label := spec.Name + " " + q.ID
			r := got.Results[0]
			if got.Stats.FwdCacheHits != 0 {
				t.Errorf("%s: %d forward memo hits, want 0", label, got.Stats.FwdCacheHits)
			}
			if got.Stats.DeltaResumes != r.Iterations-1 {
				t.Errorf("%s: %d delta resumes over %d iterations, want %d",
					label, got.Stats.DeltaResumes, r.Iterations, r.Iterations-1)
			}
			if !reflect.DeepEqual(r, want.Results[0]) {
				t.Errorf("%s: result %+v, without delta %+v", label, r, want.Results[0])
			}
		}
	}
}
