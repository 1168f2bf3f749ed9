//go:build equivalence && linux

// The equivalence gate. Every table this repository regenerates is a
// pure function of model and seed: the harness setting -parallel must
// not change a byte of stdout or of any file a run writes, with or
// without a fault schedule and with any set of observers attached.
// Each row of the table below runs upc-experiments on a selection of
// steps at a reference setting and at alternative settings and requires
// the outputs to match byte for byte; when they do not, upc-metrics
// explains the drift. Run it with
//
//	go test -tags equivalence -run TestEquivalence -timeout 45m .
//
// and a single row with -run 'TestEquivalence/<row>'. Each row's
// outputs stay under $TMPDIR/upc-equivalence/<row>/ (ref/, alt1/, ...)
// for inspection. The tag keeps these ~30 whole-binary runs out of
// go test ./...; linux because peak RSS is read from the child's rusage
// in kilobytes.
package repro

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// A row is one equivalence check. Rows share nothing: two rows that
// differ only in their observers produce different event streams (a
// -digest run carries no opt-in events, -metrics and -analyze add
// utilization and edge events), so each keeps its own reference run.
type row struct {
	name    string
	args    []string // workload selection
	faults  string   // fault schedule for every run, "" = none
	observe string   // observer flags: any of trace, digest, metrics, analyze
	ref     string   // reference setting, flags separated by spaces
	alts    []string // settings that must reproduce the reference
	differ  bool     // negative control: every alternative must differ instead
	rssMB   int64    // peak-RSS cap for each run, 0 = none
}

const (
	lossy = "examples/faults/lossy.json"
	churn = "examples/faults/churn.json"
)

var (
	table31   = []string{"-only", "Table 3.1"}
	table32   = []string{"-only", "Table 3.2"}
	figure33  = []string{"-only", "Figure 3.3"}
	figure31b = []string{"-only", "Figure 3.1b"}
	parallel8 = []string{"-parallel=8"}
)

var rows = []row{
	// Sweep width: same stdout, TraceDigest, trace JSON, manifest and
	// analysis as the sequential sweep; the first alternative of the
	// first row is a second identical run.
	{name: "stream-trace-parallel", args: table31, observe: "trace",
		ref: "-parallel=1", alts: []string{"-parallel=1", "-parallel=8"}},
	{name: "stream-metrics-parallel", args: table31, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	{name: "stream-analyze-parallel", args: table31, observe: "metrics analyze",
		ref: "-parallel=1", alts: parallel8},
	{name: "uts-digest-parallel", args: table32, observe: "digest",
		ref: "-parallel=1", alts: parallel8},
	{name: "uts-metrics-parallel", args: table32, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	// RandomAccess's three variants: at width 8 every event reaches the
	// stream only through the job tracer ra.Run passes to its runtime.
	{name: "ra-analyze-parallel", args: []string{"-only", "Extension: RandomAccess"}, observe: "metrics analyze",
		ref: "-parallel=1", alts: parallel8},

	// Points shared across steps: Table 3.2 and Summary look up only
	// Figure 3.3's points, each simulated once, with the causality
	// recorder Table 3.2 asks for attached to runs Figure 3.3 plans.
	{name: "plan-shared-digest-parallel", args: []string{"-only", "Figure 3.3,Table 3.2,Summary"},
		observe: "digest", ref: "-parallel=1", alts: parallel8},

	// One pool: STREAM, all-to-all and FT points of four steps run in
	// index order on the plan's one sweep. The STREAM kernels charge
	// their 1<<20-element arrays and compute a 4,096-element slice, so
	// the runs peak near 26 MB (1 worker) and 53-69 MB (8 workers); the
	// host arrays took 499-502 MB serial.
	{name: "plan-mixed-digest-parallel", args: []string{"-only", "Table 3.1,Figure 3.4(a),Table 4.1,Figure 4.4"},
		observe: "digest", ref: "-parallel=1", alts: parallel8, rssMB: 128},

	// Table 3.2's twelve UTS jobs fill the sweep's window at width 2;
	// peak RSS is bounded by the window, not by the sweep (buffering
	// every job until the pool drained peaked at 4.2 GB). With the
	// compact job log and 32-byte causality wait records the runs peaked
	// at 71 MB (-parallel=1) and 122 MB (-parallel=2) on a 2-vCPU host,
	// against 154 and 187 MB with 96-byte wait records.
	{name: "table32-window", args: table32, observe: "digest metrics analyze",
		ref: "-parallel=1", alts: []string{"-parallel=2"}, rssMB: 256},

	// Rendered tables with no observer: Figure 3.1b's hit/miss columns
	// come off the translation-cache counters and Table 3.2's steal
	// columns off the UTS results.
	{name: "figure31b-render", args: figure31b,
		ref: "-parallel=1", alts: parallel8},
	{name: "table32-render-parallel", args: table32,
		ref: "-parallel=1", alts: parallel8},

	// Message chaos: drops, duplicates and delays, including the fault
	// class of the comm matrix.
	{name: "stream-lossy-metrics-parallel", args: table31, faults: lossy, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	{name: "uts-lossy-metrics-parallel", args: table32, faults: lossy, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	{name: "uts-lossy-analyze-parallel", args: table32, faults: lossy, observe: "analyze",
		ref: "-parallel=1", alts: parallel8},

	// Crash/revive churn: failovers, rejoins, post-rejoin steals and
	// the rejoin-class waits of the analysis.
	{name: "stream-churn-metrics-parallel", args: table31, faults: churn, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	{name: "uts-churn-metrics-parallel", args: table32, faults: churn, observe: "metrics",
		ref: "-parallel=1", alts: parallel8},
	{name: "figure33-churn-analyze-parallel", args: figure33, faults: churn, observe: "analyze",
		ref: "-parallel=1", alts: parallel8},

	// Negative control: a fault schedule that changes the run must be
	// seen as a change, or the rows above could pass vacuously.
	{name: "stream-churn-must-differ", args: table31, observe: "metrics",
		ref: "-parallel=1", alts: []string{"-parallel=1 -faults=" + churn}, differ: true},
}

// explainers name the tool that describes a drift in an output file;
// any other file is explained by its first differing line.
var explainers = map[string]string{"metrics.json": "upc-metrics", "analyze.json": "upc-metrics"}

func TestEquivalence(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/",
		"./cmd/upc-experiments", "./cmd/upc-metrics")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	root := filepath.Join(os.TempDir(), "upc-equivalence")
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) { r.check(t, bin, filepath.Join(root, r.name)) })
	}
}

// check runs the reference and every alternative into dir and compares
// each alternative's outputs with the reference's.
func (r row) check(t *testing.T, bin, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	ref := filepath.Join(dir, "ref")
	r.run(t, bin, ref, r.ref)
	for i, setting := range r.alts {
		alt := filepath.Join(dir, fmt.Sprintf("alt%d", i+1))
		r.run(t, bin, alt, setting)
		drift := compare(bin, ref, alt)
		switch {
		case r.differ && len(drift) == 0:
			t.Errorf("%q reproduced %q byte for byte; it must differ", setting, r.ref)
		case r.differ:
			t.Logf("%q differs from %q as required:\n%s", setting, r.ref, strings.Join(drift, "\n"))
		case len(drift) > 0:
			t.Errorf("%q does not reproduce %q:\n%s", setting, r.ref, strings.Join(drift, "\n"))
		}
	}
	r.smoke(t, bin, dir)
}

// run executes one setting of the row with its outputs in dir.
func (r row) run(t *testing.T, bin, dir, setting string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	argv := append(slices.Clone(r.args), strings.Fields(setting)...)
	if r.faults != "" {
		argv = append(argv, "-faults="+r.faults)
	}
	for _, o := range strings.Fields(r.observe) {
		if o == "digest" {
			argv = append(argv, "-digest")
		} else {
			argv = append(argv, "-"+o+"="+filepath.Join(dir, o+".json"))
		}
	}
	stdout, err := os.Create(filepath.Join(dir, "stdout.txt"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	var stderr bytes.Buffer
	cmd := exec.Command(filepath.Join(bin, "upc-experiments"), argv...)
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	line := "upc-experiments"
	for _, a := range argv {
		if strings.Contains(a, " ") {
			a = strconv.Quote(a)
		}
		line += " " + a
	}
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s: %v\n%s", line, err, stderr.Bytes())
	}
	rssMB := cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss / 1024 // Maxrss is in KB on Linux
	t.Logf("%s: %s (peak RSS %d MB)", filepath.Base(dir), line, rssMB)
	if r.rssMB > 0 && rssMB > r.rssMB {
		t.Errorf("%s: peak RSS %d MB exceeds the %d MB cap", line, rssMB, r.rssMB)
	}
	if r.observe != "" {
		out, err := os.ReadFile(stdout.Name())
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains("\n"+string(out), "\nTraceDigest: ") {
			t.Errorf("%s: no TraceDigest line on stdout", line)
		}
	}
}

// compare lists every way the outputs in alt differ from those in ref,
// each with its explanation; nil means byte-identical.
func compare(bin, ref, alt string) []string {
	names, altNames := files(ref), files(alt)
	if !slices.Equal(names, altNames) {
		return []string{fmt.Sprintf("output files %v != %v", names, altNames)}
	}
	var drift []string
	for _, name := range names {
		a, b := filepath.Join(ref, name), filepath.Join(alt, name)
		ab, errA := os.ReadFile(a)
		bb, errB := os.ReadFile(b)
		if errA != nil || errB != nil {
			drift = append(drift, fmt.Sprintf("%s: %v %v", name, errA, errB))
			continue
		}
		if bytes.Equal(ab, bb) {
			continue
		}
		if tool := explainers[name]; tool != "" {
			out, err := exec.Command(filepath.Join(bin, tool), a, b).CombinedOutput()
			drift = append(drift, fmt.Sprintf("%s differs; %s a b (%v):\n%s", name, tool, err, out))
		} else {
			drift = append(drift, name+" differs: "+firstDiff(ab, bb))
		}
	}
	return drift
}

// files lists the names in dir, sorted.
func files(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// firstDiff quotes the first line where a and b disagree ("" past the
// end of one of them).
func firstDiff(a, b []byte) string {
	la, lb := strings.SplitAfter(string(a), "\n"), strings.SplitAfter(string(b), "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	la, lb = append(la, ""), append(lb, "")
	return fmt.Sprintf("line %d: %.200q != %.200q", i+1, la[i], lb[i])
}

// smoke runs upc-metrics' summary and self-diff modes, and -blame on
// an analysis, on the reference outputs and keeps the summaries next to
// them: a manifest or analysis diffed against itself must exit 0.
func (r row) smoke(t *testing.T, bin, dir string) {
	tool := func(save, name string, args ...string) {
		out, err := exec.Command(filepath.Join(bin, name), args...).CombinedOutput()
		if err != nil || len(out) == 0 {
			t.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
		}
		if save != "" {
			if err := os.WriteFile(filepath.Join(dir, save), out, 0o644); err != nil {
				t.Error(err)
			}
		}
	}
	if m := filepath.Join(dir, "ref", "metrics.json"); strings.Contains(r.observe, "metrics") {
		tool("", "upc-metrics", m, m)
		tool("metrics-summary.txt", "upc-metrics", m)
	}
	if a := filepath.Join(dir, "ref", "analyze.json"); strings.Contains(r.observe, "analyze") {
		tool("", "upc-metrics", a, a)
		tool("analyze-summary.txt", "upc-metrics", a)
		tool("analyze-blame.txt", "upc-metrics", "-blame", "-top", "10", a)
	}
}
