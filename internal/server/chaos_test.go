package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"tracer/internal/core"
	"tracer/internal/driver"
	"tracer/internal/faultinject"
	"tracer/internal/obs"
)

// TestChaosSoak hammers an in-process daemon with concurrent requests under
// seeded fault injection across both the server sites and the solver's own
// hooks, then drains it. The acceptance bar: the daemon never dies, nothing
// is silently dropped, the only outcomes are true verdicts, per-request
// degradation (failed/exhausted), or structured shedding (429/503) — and a
// proved/impossible answer is never wrong.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not a -short test")
	}
	prog, err := driver.Load(fixtureSrc)
	if err != nil {
		t.Fatal(err)
	}
	tsSpec, escSpec := driver.ClientByName("typestate"), driver.ClientByName("escape")
	nts, nesc := len(tsSpec.Queries(prog)), len(escSpec.Queries(prog))

	truth := map[string]core.Result{}
	for _, c := range []*driver.ClientSpec{tsSpec, escSpec} {
		for i := range c.Queries(prog) {
			r, err := core.Solve(c.Job(prog, i, 5), core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			truth[fmt.Sprintf("%s#%d", c.Name, i)] = r
		}
	}

	for _, seed := range []int64{7, 41} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			capture := obs.NewCapture()
			s := New(Config{
				BatchSize:  3,
				MaxWait:    3 * time.Millisecond,
				QueueLimit: 16,
				Workers:    2,
				Inject:     faultinject.Seeded(seed, 0.08),
				Recorder:   capture,
			})
			hs := httptest.NewServer(s.Handler())

			const n, workers = 48, 12
			type outcome struct {
				key        string
				httpStatus int
				status     string
				cost       int
			}
			outcomes := make([]outcome, n)
			var wg sync.WaitGroup
			next := make(chan int)
			go func() {
				for i := 0; i < n; i++ {
					next <- i
				}
				close(next)
			}()
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range next {
						client, ix := "typestate", i%(nts+nesc)
						if ix >= nts {
							client, ix = "escape", ix-nts
						}
						key := fmt.Sprintf("%s#%d", client, ix)
						b, _ := json.Marshal(SolveRequest{
							Program: fixtureSrc, Client: client,
							Query: fmt.Sprintf("#%d", ix), TimeoutMS: 10_000,
						})
						st, body := postJSON(t, hs.URL, b)
						o := outcome{key: key, httpStatus: st}
						if st == http.StatusOK {
							var resp SolveResponse
							if err := json.Unmarshal(body, &resp); err != nil {
								t.Errorf("bad 200 body %s: %v", body, err)
							}
							o.status, o.cost = resp.Status, resp.Cost
						}
						outcomes[i] = o
					}
				}()
			}
			wg.Wait()

			degraded, shed := 0, 0
			for i, o := range outcomes {
				switch o.httpStatus {
				case http.StatusOK:
					switch o.status {
					case "proved", "impossible":
						want := truth[o.key]
						if o.status != want.Status.String() {
							t.Errorf("request %d (%s): WRONG VERDICT %s, want %s",
								i, o.key, o.status, want.Status)
						} else if o.status == "proved" && o.cost != want.Abstraction.Len() {
							t.Errorf("request %d (%s): WRONG COST %d, want %d",
								i, o.key, o.cost, want.Abstraction.Len())
						}
					case "exhausted", "failed":
						degraded++
					default:
						t.Errorf("request %d (%s): unexpected solver status %q", i, o.key, o.status)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed++
				default:
					t.Errorf("request %d (%s): unexpected HTTP %d", i, o.key, o.httpStatus)
				}
			}
			t.Logf("seed %d: %d requests, %d degraded, %d shed, %d faults fired",
				seed, n, degraded, shed, len(s.inj.Fired()))

			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatalf("Shutdown after chaos = %v", err)
			}
			hs.Close()
			assertAccessLogReconciles(t, capture.Events())
		})
	}
}
