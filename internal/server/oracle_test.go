package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"tracer/internal/bench"
	"tracer/internal/core"
	"tracer/internal/driver"
)

// TestServerPathMatchesSolve is the metamorphic server-path oracle: for a
// real corpus program, the daemon's coalesced batch responses must carry
// exactly the verdicts and costs of independent per-query core.Solve runs,
// and must not depend on how requests happened to coalesce (heavily batched
// vs one round per request).
func TestServerPathMatchesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus oracle is not a -short test")
	}
	b := bench.MustLoad(bench.Suite()[0]) // tsp

	type q struct {
		client string
		ix     int
		id     string
	}
	var queries []q
	for _, name := range []string{"typestate", "escape"} {
		for i, gq := range driver.ClientByName(name).Queries(b.Prog) {
			if i >= 12 {
				break
			}
			queries = append(queries, q{name, i, gq.ID})
		}
	}

	truth := make([]core.Result, len(queries))
	for i, qq := range queries {
		r, err := core.Solve(driver.ClientByName(qq.client).Job(b.Prog, qq.ix, 5), core.Options{})
		if err != nil {
			t.Fatalf("truth %s: %v", qq.id, err)
		}
		truth[i] = r
	}

	// Two server shapes that must be observationally identical.
	shapes := []struct {
		name string
		cfg  Config
	}{
		{"coalesced", Config{BatchSize: 6, MaxWait: 50 * time.Millisecond, Workers: 2}},
		{"uncoalesced", Config{MaxWait: -1}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			_, hs := newTestServer(t, shape.cfg)
			resps := make([]SolveResponse, len(queries))
			var wg sync.WaitGroup
			sem := make(chan struct{}, 8)
			for i, qq := range queries {
				wg.Add(1)
				go func(i int, qq q) {
					defer wg.Done()
					sem <- struct{}{}
					defer func() { <-sem }()
					resps[i] = solve(t, hs.URL, SolveRequest{
						Program: b.Source,
						Client:  qq.client,
						Query:   fmt.Sprintf("#%d", qq.ix),
						K:       5,
					})
				}(i, qq)
			}
			wg.Wait()
			for i, resp := range resps {
				want := truth[i]
				if resp.Status != want.Status.String() {
					t.Errorf("%s %s: status %s, want %s",
						queries[i].client, queries[i].id, resp.Status, want.Status)
					continue
				}
				if want.Status == core.Proved {
					if resp.Cost != want.Abstraction.Len() {
						t.Errorf("%s %s: cost %d, want %d",
							queries[i].client, queries[i].id, resp.Cost, want.Abstraction.Len())
					}
					if len(resp.Abstraction) != resp.Cost {
						t.Errorf("%s %s: abstraction %v does not match cost %d",
							queries[i].client, queries[i].id, resp.Abstraction, resp.Cost)
					}
				}
			}
		})
	}
}

// TestResponseWireStability pins the JSON field names of the wire structs:
// clients and the load generator parse these, so a rename is a breaking
// change that should fail loudly here.
func TestResponseWireStability(t *testing.T) {
	resp := SolveResponse{ID: "r0", Status: "proved", Cost: 2,
		Abstraction: []string{"a", "b"}, Iterations: 3, Clauses: 4,
		ForwardSteps: 5, Timing: PhaseTiming{DecodeNS: 1, QueueNS: 2, SolveNS: 3, TotalNS: 4},
		Batch: BatchInfo{ID: "b0", Size: 2, Rounds: 1, Coalesced: true}}
	data, _ := json.Marshal(resp)
	want := `{"id":"r0","status":"proved","cost":2,"abstraction":["a","b"],` +
		`"iterations":3,"clauses":4,"forward_steps":5,` +
		`"timing":{"decode_ns":1,"queue_ns":2,"solve_ns":3,"total_ns":4},` +
		`"batch":{"id":"b0","size":2,"rounds":1,"coalesced":true}}`
	if string(data) != want {
		t.Errorf("SolveResponse wire form drifted:\n got %s\nwant %s", data, want)
	}
	edata, _ := json.Marshal(ErrorResponse{ID: "r1", Error: "x", RetryAfterMS: 9})
	ewant := `{"id":"r1","error":"x","retry_after_ms":9}`
	if string(edata) != ewant {
		t.Errorf("ErrorResponse wire form drifted:\n got %s\nwant %s", edata, ewant)
	}
}
