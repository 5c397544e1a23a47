package bench

import (
	"testing"

	"tracer/internal/driver"
)

// TestGenerateDeterministic: the same config yields byte-identical source.
func TestGenerateDeterministic(t *testing.T) {
	cfg := Suite()[0]
	a := Generate(cfg)
	b := Generate(cfg)
	if a != b {
		t.Fatal("generator is not deterministic")
	}
}

// TestSuiteLoads: every benchmark parses, checks, points-to-analyzes, and
// lowers; sizes grow roughly with position in the suite.
func TestSuiteLoads(t *testing.T) {
	var prevAtoms int
	for i, cfg := range Suite() {
		b, err := Load(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		st := b.Prog.ComputeStats(b.Source)
		t.Logf("%-9s classes=%d methods=%d atoms=%d lines=%d N_ts=%d N_esc=%d",
			cfg.Name, st.TotalClasses, st.TotalMethods, st.TotalAtoms,
			st.SourceLines, st.TypestateParams, st.EscapeParams)
		if st.TotalAtoms == 0 {
			t.Fatalf("%s: empty lowering", cfg.Name)
		}
		if i >= 4 && st.TotalAtoms < prevAtoms/4 {
			t.Errorf("%s: unexpectedly small (%d atoms)", cfg.Name, st.TotalAtoms)
		}
		if i < 4 {
			prevAtoms = st.TotalAtoms
		}
	}
}

// TestSuiteQueryGeneration: every benchmark yields queries for both clients.
func TestSuiteQueryGeneration(t *testing.T) {
	for _, cfg := range SmallSuite() {
		b := MustLoad(cfg)
		ts := driver.ClientByName("typestate").Queries(b.Prog)
		esc := driver.ClientByName("escape").Queries(b.Prog)
		t.Logf("%-9s ts-queries=%d esc-queries=%d", cfg.Name, len(ts), len(esc))
		if len(ts) == 0 {
			t.Errorf("%s: no type-state queries", cfg.Name)
		}
		if len(esc) == 0 {
			t.Errorf("%s: no escape queries", cfg.Name)
		}
	}
}
