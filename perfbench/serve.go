package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tracer/internal/core"
	"tracer/internal/server"
)

// serve is the serve workload: the suite queries, in a seeded shuffled order,
// sent to an in-process tracerd on a loopback port by nproc closed-loop
// callers, each waiting for its reply before sending the next request.
type serve struct {
	seed  int64
	refs  *refStore
	progs []*loaded
	order []*query
	src   map[*query]string

	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client
}

func (w *serve) sequential() bool { return false }
func (w *serve) warmup() bool     { return false }

// setup loads the suite (the callers need its query ids) and starts a fresh
// server with tracerd's defaults, stopping the previous one.
func (w *serve) setup(r *runCtx, parent int32) error {
	w.close()
	var err error
	if w.progs, err = loadSuite(w.seed, r, parent); err != nil {
		return err
	}
	w.order, w.src = nil, map[*query]string{}
	for _, l := range w.progs {
		for _, g := range l.groups {
			for _, q := range g.queries {
				w.order = append(w.order, q)
				w.src[q] = l.src
			}
		}
	}
	rng := rand.New(rand.NewSource(w.seed))
	rng.Shuffle(len(w.order), func(i, j int) { w.order[i], w.order[j] = w.order[j], w.order[i] })

	id := r.tr.begin("server.start", parent, "")
	defer r.tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.srv = server.New(server.Config{})
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		_ = w.hs.Serve(ln) // returns http.ErrServerClosed after Shutdown
	}()
	w.url = "http://" + ln.Addr().String() + "/solve"
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: r.workers}}
	return nil
}

// reply is one caller-side view of a request.
type reply struct {
	o    outcome
	resp server.SolveResponse
}

func (w *serve) pass(ctx context.Context, r *runCtx, parent int32) ([]outcome, error) {
	before := w.srv.Snapshot().Batches
	replies := make([]reply, len(w.order))
	errs := make([]error, r.workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < r.workers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(w.order) || errs[c] != nil {
					return
				}
				replies[i], errs[c] = w.call(ctx, w.order[i], r.tr, parent)
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	out := make([]outcome, len(replies))
	for i, rp := range replies {
		out[i] = rp.o
		if rp.o.bad {
			continue
		}
		t := rp.resp.Timing
		r.srv.decodeMS = append(r.srv.decodeMS, nsToMS(t.DecodeNS))
		r.srv.queueMS = append(r.srv.queueMS, nsToMS(t.QueueNS))
		r.srv.solveMS = append(r.srv.solveMS, nsToMS(t.SolveNS))
		r.srv.overheadMS = append(r.srv.overheadMS, rp.o.ms-nsToMS(t.TotalNS))
		r.srv.responses++
		if rp.resp.Batch.Coalesced {
			r.srv.coalesced++
		}
	}
	r.srv.rounds += w.srv.Snapshot().Batches - before
	return out, nil
}

// call sends one request and waits for its reply. A refused request (any
// status but 200), a Failed verdict, and an Exhausted verdict short of the
// iteration cap (a timeout tripped) are failed operations; only a transport
// error aborts the pass.
func (w *serve) call(ctx context.Context, q *query, tr *tracer, parent int32) (reply, error) {
	start := time.Now()
	body, err := json.Marshal(server.SolveRequest{
		Program: w.src[q], Client: q.spec.Name, Query: q.id,
		K: beamK, MaxIters: maxIters, TimeoutMS: safetyNet.Milliseconds(),
	})
	if err != nil {
		return reply{}, err
	}
	id := tr.begin("server.request", parent, q.key)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", q.key, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id)
	if err != nil {
		return reply{}, fmt.Errorf("%s: reading the reply: %w", q.key, err)
	}
	rp := reply{o: outcome{q: q, start: start, ms: msSince(start), v: verdict{Key: q.key, Status: "refused"}}}
	if resp.StatusCode != http.StatusOK {
		rp.o.bad = true
		return rp, nil
	}
	if err := json.Unmarshal(data, &rp.resp); err != nil {
		return reply{}, fmt.Errorf("%s: decoding the reply: %w", q.key, err)
	}
	s := rp.resp
	rp.o.waitMS = nsToMS(s.Timing.QueueNS)
	rp.o.v = verdict{Key: q.key, Status: s.Status}
	if s.Status == core.Proved.String() {
		rp.o.v.Cost, rp.o.v.Abs = s.Cost, strings.Join(s.Abstraction, ",")
		rp.o.abs = absSet(q.names, s.Abstraction)
	}
	rp.o.bad = s.Status == core.Failed.String() ||
		(s.Status == core.Exhausted.String() && s.Iterations < maxIters)
	return rp, nil
}

// verify checks the proved abstractions and every reply against a batch
// solve of the same queries.
func (w *serve) verify(ctx context.Context, r *runCtx, got []outcome) error {
	if err := checkAllProved(got); err != nil {
		return err
	}
	return w.refs.crossCheck(w.seed, "serve", suiteFamily, verdictsOf(got), nil, "suite-batch",
		func() ([]verdict, error) { return batchReference(ctx, groupsOf(w.progs), r.workers) })
}

// close stops the server: the HTTP side first, so no handler is left
// waiting, then the batcher, then the idle client connections.
func (w *serve) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = w.hs.Shutdown(ctx) // idle by now: every caller has its reply
	<-w.served
	_ = w.srv.Shutdown(ctx)
	w.client.CloseIdleConnections()
	w.srv = nil
}
