package analysis_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

func TestMaporder(t *testing.T) {
	// Order-sensitive map loops — direct emission, writers, unsorted
	// appends, string concatenation, and the transitive ChromeWriter
	// pattern (emission through a named function or a closure variable).
	analysistest.Run(t, "testdata/maporder/bad", "repro/internal/trace/maporderdata", analysis.Maporder)
	// Collect-then-sort, commutative accumulation, map inversion and an
	// annotated loop: silent.
	analysistest.Run(t, "testdata/maporder/ok", "repro/internal/trace/maporderdata", analysis.Maporder)
}
