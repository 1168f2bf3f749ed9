package experiments

import (
	"strings"
	"testing"
)

// TestXlateFigureDeterminism is the new figure's determinism gate: the
// rendered table and the trace stream (which carries the xlate_access /
// xlate_hit / xlate_miss counter flushes that feed metrics manifests)
// must be byte-identical at -parallel=1 and -parallel=8.
func TestXlateFigureDeterminism(t *testing.T) {
	render := func(w *strings.Builder) error { return Run(w, []string{"Figure 3.1b"}, true) }
	out1, dig1, n1 := renderAll(t, 1, render)
	out8, dig8, n8 := renderAll(t, 8, render)
	if out1 != out8 {
		t.Errorf("figure differs between -parallel=1 and -parallel=8:\n--- 1 ---\n%s\n--- 8 ---\n%s", out1, out8)
	}
	if n1 != n8 || dig1 != dig8 {
		t.Errorf("trace stream differs: %016x/%d vs %016x/%d events", dig1, n1, dig8, n8)
	}
}
