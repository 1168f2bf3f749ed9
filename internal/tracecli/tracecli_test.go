package tracecli

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/trace"
)

// appFlag stands in for an application flag whose value must land in
// the manifest's params.
var appFlag = flag.String("tracecli-test-n", "", "test-only app flag")

// setFlags applies flag values for one subtest and restores them after.
func setFlags(t *testing.T, kv map[string]string) {
	t.Helper()
	names := make([]string, 0, len(kv))
	for k := range kv {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		old := flag.Lookup(k).Value.String()
		if err := flag.Set(k, kv[k]); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { flag.Set(k, old) })
	}
}

// runOne drives one tiny simulation through the process-default tracer.
func runOne(t *testing.T, seed int64) {
	t.Helper()
	eng := sim.New(seed)
	eng.Go("worker", func(p *sim.Proc) {
		end := p.TraceSpan("test", "phase")
		p.Advance(100)
		p.TraceInstant(trace.CatComm, "put", trace.ClassSelf, 64, trace.PackEndpoints(0, 0, 0, 0))
		end()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStartIsNoOpWithoutFlags(t *testing.T) {
	setFlags(t, map[string]string{"parallel": "3"})
	if err := start(); err != nil {
		t.Fatal(err)
	}
	if sess != nil {
		t.Error("session started without any tracing flag")
	}
	if got := sweep.Workers(); got != 3 {
		t.Errorf("workers = %d, want 3 (Start must apply -parallel)", got)
	}
	var b strings.Builder
	if err := finish(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("finish printed %q without a session", b.String())
	}
}

// TestStartInstallsNoTracerWithoutFlags pins the untraced default: with
// no tracing flag (a fault schedule alone included) start installs no
// default tracer, so engines skip emission and sweeps buffer nothing.
func TestStartInstallsNoTracerWithoutFlags(t *testing.T) {
	spath := filepath.Join(t.TempDir(), "sched.json")
	if err := os.WriteFile(spath, []byte(`{"name":"cli","actions":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	setFlags(t, map[string]string{"parallel": "2", "faults": spath})
	t.Cleanup(func() { fault.SetDefault(nil) })
	if err := start(); err != nil {
		t.Fatal(err)
	}
	if tr := trace.Default(); tr != nil {
		t.Errorf("start installed default tracer %T without a tracing flag", tr)
	}
}

func TestDigestLine(t *testing.T) {
	setFlags(t, map[string]string{"digest": "true", "parallel": "1"})
	if err := start(); err != nil {
		t.Fatal(err)
	}
	runOne(t, 7)
	var b strings.Builder
	if err := finish(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "TraceDigest: ") {
		t.Fatalf("digest line = %q", out)
	}
	if trace.Default() != nil {
		t.Error("finish left a default tracer installed")
	}

	// Same seed, same digest line.
	if err := start(); err != nil {
		t.Fatal(err)
	}
	runOne(t, 7)
	var b2 strings.Builder
	if err := finish(&b2); err != nil {
		t.Fatal(err)
	}
	if b2.String() != out {
		t.Errorf("same-seed digest lines differ:\n%q\n%q", out, b2.String())
	}
}

func TestMetricsExport(t *testing.T) {
	mpath := filepath.Join(t.TempDir(), "m.json")
	setFlags(t, map[string]string{
		"metrics": mpath, "parallel": "1", "tracecli-test-n": "64",
	})
	if err := start(); err != nil {
		t.Fatal(err)
	}
	if sess == nil || coll == nil {
		t.Fatal("-metrics must start a session with an attached collection")
	}
	if !trace.WantsUtil(trace.Default()) {
		t.Error("default tracer chain must inherit the collection's util opt-in")
	}
	runOne(t, 11)
	var b strings.Builder
	if err := finish(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "TraceDigest: ") {
		t.Errorf("metrics run must still print the digest line, got %q", b.String())
	}

	m, err := metrics.Load(mpath)
	if err != nil {
		t.Fatal(err)
	}
	if m.Runs != 1 || m.Seeds[0] != 11 {
		t.Errorf("manifest runs=%d seeds=%v", m.Runs, m.Seeds)
	}
	if m.Comm == nil || m.Comm.Classes[0].Class != trace.ClassSelf || m.Comm.Classes[0].Bytes != 64 {
		t.Errorf("manifest comm = %+v", m.Comm)
	}
	if m.Profile == nil || m.Profile.Phases[0].Name != "test/phase" {
		t.Errorf("manifest profile = %+v", m.Profile)
	}
	if got := m.Params["tracecli-test-n"]; got != "64" {
		t.Errorf("params[tracecli-test-n] = %q, want 64", got)
	}
	recorded := make([]string, 0, len(m.Params))
	for k := range m.Params {
		recorded = append(recorded, k)
	}
	sort.Strings(recorded)
	for _, k := range recorded {
		switch k {
		case "trace", "digest", "metrics", "parallel":
			t.Errorf("harness flag %q leaked into params", k)
		}
		if strings.HasPrefix(k, "test.") {
			t.Errorf("go-test flag %q leaked into params", k)
		}
	}
	// The digest and event count the manifest records are the session's.
	if want := fmt.Sprintf("TraceDigest: %s (%d events)\n", m.Digest, m.Events); b.String() != want {
		t.Errorf("digest line %q, manifest says %q", b.String(), want)
	}
}

func TestFaultsFlagInstallsDefaultSchedule(t *testing.T) {
	spath := filepath.Join(t.TempDir(), "sched.json")
	if err := os.WriteFile(spath, []byte(
		`{"name":"cli","actions":[{"op":"drop","at_s":0,"until_s":1,"prob":0.5}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	setFlags(t, map[string]string{"faults": spath})
	t.Cleanup(func() { fault.SetDefault(nil) })
	if err := start(); err != nil {
		t.Fatal(err)
	}
	s := fault.Default()
	if s == nil || s.Name != "cli" || len(s.Actions) != 1 || s.Actions[0].Src != -1 {
		t.Fatalf("installed default schedule = %+v", s)
	}

	// Clearing the flag clears the process default on the next Start.
	setFlags(t, map[string]string{"faults": ""})
	if err := start(); err != nil {
		t.Fatal(err)
	}
	if fault.Default() != nil {
		t.Error("empty -faults must clear the default schedule")
	}
}

func TestFaultsFlagRejectsBadSchedule(t *testing.T) {
	spath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(spath, []byte(
		`{"actions":[{"op":"drop","at_s":0,"prob":7}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	setFlags(t, map[string]string{"faults": spath})
	t.Cleanup(func() { fault.SetDefault(nil) })
	if err := start(); err == nil {
		t.Fatal("start accepted a schedule with prob outside (0,1]")
	}
	if err := start(); err == nil {
		t.Fatal("retry should fail the same way")
	}
	if fault.Default() != nil {
		t.Error("failed start left a default schedule installed")
	}
}

func TestStartFailsOnBadTracePath(t *testing.T) {
	setFlags(t, map[string]string{
		"trace": filepath.Join(t.TempDir(), "missing-dir", "t.json"),
	})
	if err := start(); err == nil {
		t.Fatal("start succeeded with an unwritable trace path")
	}
	if sess != nil {
		t.Error("failed start left a session behind")
	}
	if trace.Default() != nil {
		t.Error("failed start left a default tracer installed")
	}
}

func TestMain(m *testing.M) {
	flag.Parse()
	os.Exit(m.Run())
}
