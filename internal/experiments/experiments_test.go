package experiments

import (
	"strings"
	"testing"

	"repro/internal/apps/uts"
)

// render returns what Run prints for the named steps at quick scale.
func render(t *testing.T, names ...string) string {
	t.Helper()
	var b strings.Builder
	if err := Run(&b, names, true); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestTable31Renders(t *testing.T) {
	out := render(t, "Table 3.1")
	for _, want := range []string{"Table 3.1", "UPC baseline", "UPC with cast", "paper"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTable41Renders(t *testing.T) {
	out := render(t, "Table 4.1")
	for _, want := range []string{"Table 4.1", "UPC 8", "1*8 (unbound)", "24.5"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure34aRenders(t *testing.T) {
	out := render(t, "Figure 3.4(a)")
	for _, want := range []string{"Figure 3.4(a)", "PSHM", "pthreads + cast"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFigure42Renders(t *testing.T) {
	out := render(t, "Figure 4.2(a)")
	for _, want := range []string{"Figure 4.2(a)", "1 link", "8 link pthreads", "8 link processes"} {
		if !strings.Contains(out, want) {
			t.Errorf("latency output missing %q", want)
		}
	}
	if !strings.Contains(render(t, "Figure 4.2(b)"), "flood bandwidth") {
		t.Error("bandwidth panel missing title")
	}
}

// TestRunSelection pins -only's semantics on two cheap steps: names
// given in reverse render in index order, each step exactly as it
// renders alone followed by a blank line, and one unknown name fails
// before anything is written.
func TestRunSelection(t *testing.T) {
	xlate, lat := render(t, "Figure 3.1b"), render(t, "Figure 4.2(a)")
	for _, out := range []string{xlate, lat} {
		if !strings.HasSuffix(out, "\n\n") {
			t.Errorf("a step must end with a blank line:\n%q", out)
		}
	}
	if got := render(t, "Figure 4.2(a)", "Figure 3.1b"); got != xlate+lat {
		t.Errorf("Run rendered\n%s\nwant Figure 3.1b then Figure 4.2(a):\n%s", got, xlate+lat)
	}

	var got strings.Builder
	err := Run(&got, []string{"Figure 3.1b", "Figure 9.9"}, true)
	if err == nil {
		t.Fatal("an unknown experiment name must fail")
	}
	for _, name := range []string{"Figure 9.9", "Table 3.1", "Figure 3.1b", "Figure 4.6", "Summary"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
	if got.Len() != 0 {
		t.Errorf("a failed selection wrote %d bytes before checking its names", got.Len())
	}
	if cerr := Check([]string{"Figure 3.1b", "Figure 9.9"}); cerr == nil || cerr.Error() != err.Error() {
		t.Errorf("Check reported %v, want Run's error %q", cerr, err)
	}
	if cerr := Check(nil); cerr != nil {
		t.Errorf("Check(nil) = %v, want nil (every experiment)", cerr)
	}
}

func TestUTSHelpers(t *testing.T) {
	cfg := utsConfig("gige", 32, 0, true)
	if cfg.Granularity != 20 {
		t.Errorf("Ethernet granularity = %d, want the paper's 20", cfg.Granularity)
	}
	cfg = utsConfig("ibv-ddr", 32, 0, true)
	if cfg.Granularity != 8 {
		t.Errorf("InfiniBand granularity = %d, want the paper's 8", cfg.Granularity)
	}
	if cfg.PerNode != 2 {
		t.Errorf("32 procs on 16 nodes => 2 per node, got %d", cfg.PerNode)
	}
	full := utsTree(false)
	if n, _ := full.CountSequential(); n < 4_000_000 {
		t.Errorf("paper tree realized only %d nodes", n)
	}
	// Threads that never stole count in the per-thread spread.
	if got := stealSpread(uts.Result{StealsByThread: []int64{20, 0, 10, 0, 0}}); got != "0/0/16" {
		t.Errorf("stealSpread = %q, want 0/0/16 (zeros included)", got)
	}
}

func TestFig34LayoutsMatchPaperLabels(t *testing.T) {
	// Figure 3.4(b) x labels: 4(4*1), 8(4*2), 16(8*2), 32(8*4), 64(8*8).
	want := [][2]int{{4, 1}, {8, 2}, {16, 2}, {32, 4}, {64, 8}}
	got := fig34Layouts()
	if len(got) != len(want) {
		t.Fatalf("layout count %d", len(got))
	}
	for i, w := range want {
		if got[i].Threads != w[0] || got[i].PerNode != w[1] {
			t.Errorf("layout %d = %+v, want %v", i, got[i], w)
		}
	}
}

func TestFtHelperGrids(t *testing.T) {
	ts := ftThreads(true)
	if ts[len(ts)-1] != 64 {
		t.Errorf("quick grid must stop at 64: %v", ts)
	}
	ts = ftThreads(false)
	if ts[len(ts)-1] != 128 {
		t.Errorf("full grid must include the SMT point: %v", ts)
	}
	if perNodeFor(4) != 1 || perNodeFor(64) != 8 || perNodeFor(128) != 16 {
		t.Error("perNodeFor mapping wrong")
	}
	cfgs := fig46Configs(false)
	if len(cfgs) <= len(fig46Configs(true)) {
		t.Error("full Figure 4.6 sweep must add configurations")
	}
}
