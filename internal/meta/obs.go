package meta

import (
	"tracer/internal/formula"
	"tracer/internal/obs"
)

// FlushUniverseObs records a universe's interning and theory-memo telemetry
// as the formula.* obs counters, consuming the deltas accumulated since the
// previous flush (the universe size is reported as a gauge). Client jobs and
// the driver's batch problems use it to implement core.ObsFlusher; the
// counters are scheduling-dependent under concurrency and are deliberately
// kept out of the deterministic event stream.
func FlushUniverseObs(rec obs.Recorder, u *formula.Universe) {
	if u == nil || rec == nil || !rec.Enabled() {
		return
	}
	s := u.TakeStats()
	rec.Gauge(obs.FormulaUniverseSize, int64(s.Size))
	rec.Count(obs.FormulaCubeProducts, s.CubeProducts)
	rec.Count(obs.FormulaSubsumptionChecks, s.SubsumptionChecks)
	rec.Count(obs.FormulaSigFiltered, s.SigFiltered)
	rec.Count(obs.FormulaSigSkips, s.SigSkips)
	rec.Count(obs.FormulaTheoryMemoHits, s.TheoryMemoHits)
	rec.Count(obs.FormulaTheoryMemoFills, s.TheoryMemoFills)
}

// FlushWPObs records a WP cache's telemetry as the meta.wp_formula_memo_*
// and meta.wp_lit_* counters, consuming the deltas accumulated since the
// previous flush. Like FlushUniverseObs it is called by the jobs'
// core.ObsFlusher implementations.
func FlushWPObs(rec obs.Recorder, c *WPCache) {
	if c == nil || rec == nil || !rec.Enabled() {
		return
	}
	if h := c.fmHits.Swap(0); h != 0 {
		rec.Count(obs.MetaWPFormulaMemoHits, h)
	}
	if m := c.fmMisses.Swap(0); m != 0 {
		rec.Count(obs.MetaWPFormulaMemoMisses, m)
	}
	if f := c.litFills.Swap(0); f != 0 {
		rec.Count(obs.MetaWPLitFills, f)
	}
	if id := c.litIdentity.Swap(0); id != 0 {
		rec.Count(obs.MetaWPLitIdentity, id)
	}
}
