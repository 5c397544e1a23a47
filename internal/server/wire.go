// Wire format of the solver daemon: the JSON request/response bodies of
// POST /solve and the hardened decoder that turns an untrusted body into an
// admitted request. The decoder is the daemon's first line of defense: any
// malformed, oversized, or semantically invalid payload must come back as a
// structured 400 — never a panic, and never an enqueued request that a batch
// round then chokes on.
package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"tracer/internal/driver"
)

// SolveRequest is the body of POST /solve.
type SolveRequest struct {
	// Program is the mini-IR source text to analyze.
	Program string `json:"program"`
	// Client selects the parametric analysis by its registry wire name:
	// "typestate", "escape", or "nullness" (see driver.Clients).
	Client string `json:"client"`
	// Query names one generated query of the client: an exact query ID
	// ("esc:Class.m:3:5:v"), an exact position-independent key, or "#<n>"
	// for the n'th query in the client's deterministic order.
	Query string `json:"query"`
	// K is the beam width of the backward meta-analysis (default 5).
	K int `json:"k,omitempty"`
	// MaxIters caps the query's CEGAR iterations (default/cap: the server's
	// MaxIters config).
	MaxIters int `json:"max_iters,omitempty"`
	// TimeoutMS is the per-request wall-clock budget, measured from arrival
	// (default: the server's DefaultTimeout; capped at MaxTimeout).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tenant identifies the caller for per-tenant quotas (also settable via
	// the X-Tenant header; the header wins when both are present).
	Tenant string `json:"tenant,omitempty"`
}

// PhaseTiming is the flat, CSV-friendly per-request timing breakdown.
type PhaseTiming struct {
	// DecodeNS is the cost of decoding, validating, and loading (or finding
	// cached) the request's program.
	DecodeNS int64 `json:"decode_ns"`
	// QueueNS is the time between admission and the start of the coalesced
	// batch round that solved the request.
	QueueNS int64 `json:"queue_ns"`
	// SolveNS is the wall time of the batch round (shared by every request
	// coalesced into it).
	SolveNS int64 `json:"solve_ns"`
	// TotalNS is arrival to response construction.
	TotalNS int64 `json:"total_ns"`
}

// BatchInfo describes the coalesced round that resolved a request.
type BatchInfo struct {
	// ID is the round's server-assigned id ("b<seq>").
	ID string `json:"id"`
	// Size is the number of requests coalesced into the round.
	Size int `json:"size"`
	// Rounds is the number of CEGAR scheduling rounds the batch ran.
	Rounds int `json:"rounds,omitempty"`
	// Coalesced reports whether the request shared its round with others.
	Coalesced bool `json:"coalesced"`
}

// SolveResponse is the 200 body of POST /solve. Status carries the solver
// verdict — proved, impossible, exhausted, or failed — so HTTP 200 means
// "the daemon resolved the request", not "the query was proved"; degraded
// outcomes are per-request statuses, never process deaths.
type SolveResponse struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	// Cost and Abstraction report the minimum proving abstraction when
	// Status == "proved".
	Cost         int         `json:"cost,omitempty"`
	Abstraction  []string    `json:"abstraction,omitempty"`
	Iterations   int         `json:"iterations"`
	Clauses      int         `json:"clauses"`
	ForwardSteps int         `json:"forward_steps"`
	Failure      string      `json:"failure,omitempty"`
	Timing       PhaseTiming `json:"timing"`
	Batch        BatchInfo   `json:"batch"`
}

// ErrorResponse is the structured body of every non-200 status.
type ErrorResponse struct {
	ID    string `json:"id,omitempty"`
	Error string `json:"error"`
	// RetryAfterMS accompanies 429/503 and mirrors the Retry-After header,
	// derived from the current round wall and queue depth.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// clientKind is a validated SolveRequest.Client: a driver registry wire
// name (driver.ClientByName(string(kind)) != nil for every admitted
// request). Dispatch goes through the registry.
type clientKind string

// kMax bounds the accepted beam width; larger values are a resource-abuse
// vector (the meta-analysis is exponential in k), not a legitimate request.
const kMax = 64

// badRequestError is returned by decode for every client-side defect; its
// message is safe to echo into the 400 body.
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badReqf(format string, args ...any) *badRequestError {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// request is one admitted solve request flowing through the batcher.
type request struct {
	id      string
	tenant  string
	client  clientKind
	lp      *loadedProgram
	queryIx int
	k       int
	maxIter int
	timeout time.Duration

	arrival  time.Time
	deadline time.Time
	compat   string // coalescing compatibility key
	decodeNS int64

	done chan SolveResponse // buffered(1); the batcher always delivers
}

// decode parses, validates, and resolves a request body. It never panics: a
// panicking parse (a decoder bug surfaced by fuzzing) is recovered into a
// structured error so the offending payload degrades to a 400 instead of
// taking the handler goroutine down.
func (s *Server) decode(body []byte) (req *request, err error) {
	defer func() {
		if r := recover(); r != nil {
			req, err = nil, badReqf("malformed request: %v", r)
		}
	}()
	var sr SolveRequest
	if jerr := json.Unmarshal(body, &sr); jerr != nil {
		return nil, badReqf("malformed JSON: %v", jerr)
	}
	if sr.Program == "" {
		return nil, badReqf("missing program")
	}
	client := clientKind(sr.Client)
	if driver.ClientByName(sr.Client) == nil {
		return nil, badReqf("invalid client %q (want %s)", sr.Client,
			strings.Join(driver.ClientNames(), "|"))
	}
	if sr.K == 0 {
		sr.K = 5
	}
	if sr.K < 1 || sr.K > kMax {
		return nil, badReqf("k %d out of range [1,%d]", sr.K, kMax)
	}
	if sr.MaxIters == 0 {
		sr.MaxIters = s.cfg.MaxIters
	}
	if sr.MaxIters < 1 || sr.MaxIters > s.cfg.MaxIters {
		return nil, badReqf("max_iters %d out of range [1,%d]", sr.MaxIters, s.cfg.MaxIters)
	}
	timeout := s.cfg.DefaultTimeout
	if sr.TimeoutMS != 0 {
		if sr.TimeoutMS < 0 {
			return nil, badReqf("negative timeout_ms")
		}
		timeout = time.Duration(sr.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	lp, lerr := s.progs.get(sr.Program)
	if lerr != nil {
		return nil, badReqf("program does not load: %v", lerr)
	}
	ix, qerr := lp.resolveQuery(client, sr.Query)
	if qerr != nil {
		return nil, qerr
	}
	return &request{
		tenant:  sr.Tenant,
		client:  client,
		lp:      lp,
		queryIx: ix,
		k:       sr.K,
		maxIter: sr.MaxIters,
		timeout: timeout,
		compat: fmt.Sprintf("%s|%s|k%d|i%d|t%d", lp.key, client, sr.K,
			sr.MaxIters, timeout/time.Millisecond),
		done: make(chan SolveResponse, 1),
	}, nil
}

// resolveQuery maps a query selector onto an index into the client's
// deterministic generated-query order.
func (lp *loadedProgram) resolveQuery(client clientKind, sel string) (int, error) {
	cq := lp.byClient[client]
	if cq == nil {
		return 0, badReqf("invalid client %q", client)
	}
	n, idx := len(cq.qs), cq.idx
	if sel == "" {
		return 0, badReqf("missing query selector")
	}
	if sel[0] == '#' {
		var i int
		if _, err := fmt.Sscanf(sel, "#%d", &i); err != nil || i < 0 || i >= n {
			return 0, badReqf("query index %q out of range [0,%d)", sel, n)
		}
		return i, nil
	}
	if i, ok := idx[sel]; ok {
		return i, nil
	}
	return 0, badReqf("no %s query matches %q (%d queries)", client, sel, n)
}

// queryID returns the canonical display ID of the request's query.
func (r *request) queryID() string {
	return r.lp.byClient[r.client].qs[r.queryIx].ID
}

// queryKey returns the position-independent warm-store key of the query.
func (r *request) queryKey() string {
	return r.lp.byClient[r.client].qs[r.queryIx].Key
}

// paramName renders parameter i of the request's abstraction family.
func (r *request) paramName(i int) string {
	return r.lp.byClient[r.client].params[i]
}

// hashSource content-addresses a program text for the cache and the
// coalescing key.
func hashSource(src string) string {
	h := fnv.New64a()
	h.Write([]byte(src))
	return fmt.Sprintf("%016x-%d", h.Sum64(), len(src))
}

// clientQueries is one client's generated-query view of a loaded program:
// the deterministic query list, the selector index (both the display ID and
// the position-independent key of each query map to its index), and the
// parameter universe in parameter-index order.
type clientQueries struct {
	qs     []driver.GenQuery
	idx    map[string]int
	params []string
}

// loadedProgram is a parsed, analyzed program with every registered client's
// generated query lists and selector indices, built once and shared
// read-only by every batch that names the same source text.
type loadedProgram struct {
	key      string
	prog     *driver.Program
	byClient map[clientKind]*clientQueries
}

// loadProgram parses and prepares src and builds every client's query list.
// The result is shared by concurrent batch executors (the driver's lazily
// built memos are safe for concurrent use).
func loadProgram(key, src string) (lp *loadedProgram, err error) {
	defer func() {
		if r := recover(); r != nil {
			lp, err = nil, fmt.Errorf("panic while loading program: %v", r)
		}
	}()
	prog, err := driver.Load(src)
	if err != nil {
		return nil, err
	}
	lp = &loadedProgram{key: key, prog: prog, byClient: map[clientKind]*clientQueries{}}
	for _, spec := range driver.Clients() {
		cq := &clientQueries{qs: spec.Queries(prog), idx: map[string]int{},
			params: spec.ParamNames(prog)}
		for i, q := range cq.qs {
			cq.idx[q.ID] = i
			cq.idx[q.Key] = i
		}
		lp.byClient[clientKind(spec.Name)] = cq
	}
	return lp, nil
}
