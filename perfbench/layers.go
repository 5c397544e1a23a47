package main

import (
	"fmt"
	"sort"
)

// warmCounts are the warm-store counts of edit-warm passes.
type warmCounts struct {
	opens         int
	seeded        int   // cubes returned by SeedFor
	editedQueries int   // queries solved on edited steps (step >= 1)
	oneIter       int   // of those, resolved within one CEGAR iteration
	storeBytes    int64 // store size after each pass, summed
}

// serverCounts are the per-response figures of serve passes.
type serverCounts struct {
	decodeMS, queueMS, solveMS, overheadMS []float64
	coalesced, responses                   int
	rounds                                 int64
}

// layerMetrics derives the per-layer metrics of a traced run. Times and
// counts are per pass; set-up loads are per set-up. The batch scheduler's
// metrics are reported only when batch is set: only suite-batch calls
// core.SolveBatch itself, and on the other workloads they would read 0.
func layerMetrics(r *runCtx, spans []span, passes int, tracedMS, bareMS float64, batch bool) []metric {
	inPass, inSetup := under(spans, "bench.pass"), under(spans, "bench.setup")
	prof := summarize(spans, inPass)
	var setupLoadNS, batchNS, batchKidsNS int64
	for i, s := range spans {
		if inSetup[i] && s.Name == "driver.load" {
			setupLoadNS += s.End - s.Start
		}
		if !inPass[i] {
			continue
		}
		if s.Name == "core.solve_batch" {
			batchNS += s.End - s.Start
		}
		if s.Parent != noSpan && spans[s.Parent].Name == "core.solve_batch" {
			batchKidsNS += s.End - s.Start
		}
	}
	P := float64(passes)
	ms := func(name string) float64 { return nsToMS(prof.totalNS[name]) / P }
	selfMS := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += prof.selfNS[n]
		}
		return nsToMS(ns) / P
	}
	per := func(n int64) float64 { return float64(n) / P }
	lc := &r.lc
	b := r.batch

	out := []metric{
		{"driver.load_ms", nsToMS(setupLoadNS)/setupReps + ms("driver.load"), "ms", passes},
		{"driver.job_build_ms", ms("driver.job_build"), "ms", passes},
		{"driver.job_builds", per(int64(r.jobBuilds)), "count", passes},

		{"dataflow.forward_ms", ms("dataflow.forward"), "ms", passes},
		{"dataflow.forward_calls", per(lc.forwardCalls.Load()), "count", passes},
		{"dataflow.forward_steps", per(lc.forwardSteps.Load() + int64(b.TotalSteps)), "count", passes},
		{"dataflow.reused_edges", per(lc.reusedEdges.Load() + int64(b.PEReused)), "count", passes},
		{"dataflow.resume_share", share(lc.resumedCalls.Load(), lc.forwardCalls.Load()), "share", passes},

		{"meta.backward_ms", ms("meta.backward"), "ms", passes},
		{"meta.backward_calls", per(lc.backwardCalls.Load()), "count", passes},
		{"meta.cubes_per_call", share(lc.cubes.Load(), lc.backwardCalls.Load()), "count", passes},

		{"core.self_ms", selfMS("core.solve", "core.solve_batch"), "ms", passes},
		{"core.iterations", per(int64(r.iterations)), "count", passes},
		{"core.clauses", per(int64(r.clauses)), "count", passes},

		{"warm.session_open_ms", ms("warm.session_open"), "ms", passes},
		{"warm.session_opens", per(int64(r.warm.opens)), "count", passes},
		{"warm.seed_ms", ms("warm.seed"), "ms", passes},
		{"warm.record_ms", ms("warm.record"), "ms", passes},
		{"warm.save_ms", ms("warm.save"), "ms", passes},
		{"warm.seeded_clauses", per(int64(r.warm.seeded)), "count", passes},
		{"warm.one_iter_share", share(int64(r.warm.oneIter), int64(r.warm.editedQueries)), "share", passes},
		{"warm.store_bytes", per(r.warm.storeBytes), "bytes", passes},

		{"server.decode_ms_p50", median(r.srv.decodeMS), "ms", len(r.srv.decodeMS)},
		{"server.queue_ms_p50", median(r.srv.queueMS), "ms", len(r.srv.queueMS)},
		{"server.solve_ms_p50", median(r.srv.solveMS), "ms", len(r.srv.solveMS)},
		{"server.client_overhead_ms_p50", median(r.srv.overheadMS), "ms", len(r.srv.overheadMS)},
		{"server.coalesced_share", share(int64(r.srv.coalesced), int64(r.srv.responses)), "share", r.srv.responses},
		{"server.rounds", per(r.srv.rounds), "count", passes},

		{"trace.unattributed_ms", selfMS("bench.pass"), "ms", passes},
		{"trace.overhead_share", tracedMS/bareMS - 1, "share", passes},
	}
	if batch {
		out = append(out,
			metric{"dataflow.check_ms", ms("dataflow.check"), "ms", passes},
			metric{"dataflow.check_calls", per(lc.checkCalls.Load()), "count", passes},
			metric{"core.batch_rounds", per(int64(b.Rounds)), "count", passes},
			metric{"core.fwd_cache_hit_share", share(int64(b.FwdCacheHits), int64(b.FwdCacheHits+b.FwdCacheMisses)), "share", passes},
			metric{"core.delta_resumes", per(int64(b.DeltaResumes)), "count", passes},
			metric{"core.worker_busy_share", share(batchKidsNS, batchNS*int64(r.workers)), "share", passes},
		)
	}
	return out
}

func share(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkBusy is the reconciliation of a sequential run: within each pass the
// layers' self times must not add up to more than the pass wall. The pass
// span's own self time is the unattributed remainder.
func checkBusy(spans []span) error {
	self := selfTimes(spans)
	root := make([]int32, len(spans))
	busy := map[int32]int64{}
	for i, s := range spans {
		if s.Parent == noSpan {
			root[i] = int32(i)
			continue
		}
		root[i] = root[s.Parent]
		busy[root[i]] += self[i]
	}
	ids := make([]int32, 0, len(busy))
	for id := range busy {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if s := spans[id]; s.Name == "bench.pass" && busy[id] > s.End-s.Start {
			return fmt.Errorf("layer self times add up to %.3f ms in a %.3f ms pass",
				nsToMS(busy[id]), nsToMS(s.End-s.Start))
		}
	}
	return nil
}
