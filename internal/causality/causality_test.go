package causality

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic" //upcvet:rawgo -- counts finalizers, which the Go runtime runs on its own goroutine
	"testing"

	"repro/internal/apps/uts"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

func upcCfg(rec trace.Tracer, threads, perNode int) upc.Config {
	return upc.Config{
		Machine:        topo.Lehman(),
		Threads:        threads,
		ThreadsPerNode: perNode,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           1,
		Tracer:         rec,
	}
}

// findClass returns the named wait class of a run, or nil.
func findClass(ra *RunAnalysis, class string) *WaitClassExport {
	for i := range ra.WaitClasses {
		if ra.WaitClasses[i].Class == class {
			return &ra.WaitClasses[i]
		}
	}
	return nil
}

// blamedNS sums the wait time a run's analysis blames on the named
// thread across every wait class.
func blamedNS(ra *RunAnalysis, thread string) int64 {
	var total int64
	for _, wc := range ra.WaitClasses {
		for _, b := range wc.Blamed {
			if b.Thread == thread {
				total += b.NS
			}
		}
	}
	return total
}

// segmentSum adds up a run's critical-path segments.
func segmentSum(ra *RunAnalysis) int64 {
	var total int64
	for _, s := range ra.CriticalPath.Segments {
		total += s.NS
	}
	return total
}

// TestBarrierBlamesLateArriver: three threads reach the barrier
// immediately, one arrives 5ms late. The waiters' barrier waits must be
// blamed, by name, on the late arriver, and the blame must carry
// (roughly) the injected delay.
func TestBarrierBlamesLateArriver(t *testing.T) {
	rec := NewRecorder()
	const delay = 5 * sim.Millisecond
	_, err := upc.Run(upcCfg(rec, 4, 2), func(th *upc.Thread) {
		if th.ID == 3 {
			th.P.Advance(delay)
		}
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	exp := rec.Export()
	if len(exp.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(exp.Runs))
	}
	ra := &exp.Runs[0]
	wc := findClass(ra, ClassBarrier)
	if wc == nil {
		t.Fatalf("no barrier wait class in %+v", ra.WaitClasses)
	}
	if wc.Instances < 3 {
		t.Errorf("barrier instances = %d, want >= 3 waiters", wc.Instances)
	}
	if len(wc.Blamed) == 0 || wc.Blamed[0].Thread != "upc3" {
		t.Fatalf("top barrier blame = %+v, want upc3", wc.Blamed)
	}
	// Three waiters each stalled ~delay on upc3.
	if got := blamedNS(ra, "upc3"); got < 3*int64(delay)*9/10 {
		t.Errorf("blamed(upc3) = %d, want >= ~%d", got, 3*int64(delay))
	}
	// Phase imbalance must name the same culprit.
	if len(ra.Phases) == 0 || ra.Phases[0].Site != "barrier" || ra.Phases[0].TopBlame != "upc3" {
		t.Errorf("phases = %+v, want barrier site blaming upc3", ra.Phases)
	}
}

// TestLockBlamesPreviousHolder: threads serialize on one lock, each
// holding it for 1ms. Contended acquisitions must classify as lock
// waits blamed on a named previous holder.
func TestLockBlamesPreviousHolder(t *testing.T) {
	rec := NewRecorder()
	_, err := upc.Run(upcCfg(rec, 4, 2), func(th *upc.Thread) {
		l := upc.AllocLock(th, 0)
		l.Lock(th)
		th.P.Advance(sim.Millisecond)
		l.Unlock(th)
		th.Barrier()
	})
	if err != nil {
		t.Fatal(err)
	}
	ra := &rec.Export().Runs[0]
	wc := findClass(ra, ClassLock)
	if wc == nil {
		t.Fatalf("no lock wait class in %+v", ra.WaitClasses)
	}
	if len(wc.Blamed) == 0 {
		t.Fatal("lock contention produced no blamed holder")
	}
	for _, b := range wc.Blamed {
		if !strings.HasPrefix(b.Thread, "upc") {
			t.Errorf("lock blame %+v not a named thread", b)
		}
	}
}

// TestCriticalPathPartitionsMakespan: on a nontrivial two-node UTS run
// the critical-path segments must sum exactly to the run makespan —
// the walk partitions (0, makespan] by construction, and the export
// must preserve that.
func TestCriticalPathPartitionsMakespan(t *testing.T) {
	rec := NewRecorder()
	if _, err := uts.Run(uts.Config{
		Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
		Tree: uts.Small(20000), Seed: 3, Tracer: rec,
	}); err != nil {
		t.Fatal(err)
	}
	exp := rec.Export()
	for i := range exp.Runs {
		ra := &exp.Runs[i]
		if ra.MakespanNS <= 0 {
			t.Fatalf("run %d: makespan %d", i, ra.MakespanNS)
		}
		if got := segmentSum(ra); got != ra.MakespanNS {
			t.Errorf("run %d: segment sum %d != makespan %d", i, got, ra.MakespanNS)
		}
		if ra.CriticalPath.Steps == 0 {
			t.Errorf("run %d: critical path took no steps", i)
		}
	}
	// The folded flamegraph is the same partition, thread-resolved.
	var folded int64
	for _, line := range strings.Split(strings.TrimSpace(rec.FoldedText()), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 || !strings.HasPrefix(parts[0], "critical;") {
			t.Fatalf("bad folded line %q", line)
		}
		ns, err := strconv.ParseInt(parts[1], 10, 64)
		if err != nil {
			t.Fatal(err)
		}
		folded += ns
	}
	if folded != exp.TotalMakespanNS {
		t.Errorf("folded stacks sum %d != total makespan %d", folded, exp.TotalMakespanNS)
	}
}

// TestUTSLossyWaitStates is the acceptance scenario: UTS under the
// lossy fault schedule must classify at least three distinct wait-state
// types, name blamed threads, and still partition the makespan.
func TestUTSLossyWaitStates(t *testing.T) {
	sched, err := fault.Load("../../examples/faults/lossy.json")
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder()
	if _, err := uts.Run(uts.Config{
		Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
		Tree: uts.Small(20000), Seed: 3, Tracer: rec, Faults: sched,
	}); err != nil {
		t.Fatal(err)
	}
	ra := &rec.Export().Runs[0]
	if got := segmentSum(ra); got != ra.MakespanNS {
		t.Errorf("segment sum %d != makespan %d", got, ra.MakespanNS)
	}
	if len(ra.WaitClasses) < 3 {
		t.Fatalf("wait classes = %+v, want >= 3 distinct types", ra.WaitClasses)
	}
	named := 0
	for _, wc := range ra.WaitClasses {
		for _, b := range wc.Blamed {
			if strings.HasPrefix(b.Thread, "upc") {
				named++
				break
			}
		}
	}
	if named < 2 {
		t.Errorf("only %d wait classes carry named thread blame: %+v", named, ra.WaitClasses)
	}
}

// TestInjectedDelayIsBlamed is the negative control behind the
// equivalence gate's analysis rows: injecting a delay into one thread
// must surface as blamed wait time attributed to that thread, absent
// from an identical run without the delay.
func TestInjectedDelayIsBlamed(t *testing.T) {
	run := func(delay sim.Duration) *RunAnalysis {
		rec := NewRecorder()
		if _, err := upc.Run(upcCfg(rec, 4, 2), func(th *upc.Thread) {
			th.Barrier()
			if th.ID == 2 {
				th.P.Advance(delay)
			}
			th.Barrier()
		}); err != nil {
			t.Fatal(err)
		}
		return &rec.Export().Runs[0]
	}
	const delay = 3 * sim.Millisecond
	clean := blamedNS(run(0), "upc2")
	slow := blamedNS(run(delay), "upc2")
	if slow-clean < 3*int64(delay)*9/10 {
		t.Errorf("injected %v delay raised blame on upc2 by only %dns (clean %d, slow %d)",
			delay, slow-clean, clean, slow)
	}
}

func marshal(t *testing.T, e *Export) []byte {
	t.Helper()
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sweepExport runs a 4-point UTS sweep at the given -parallel width
// with a recorder attached as the session sink, returning the
// serialized analysis.
func sweepExport(t *testing.T, workers int) []byte {
	t.Helper()
	prevWorkers := sweep.Workers()
	prevTracer := trace.Default()
	rec := NewRecorder()
	trace.SetDefault(rec)
	sweep.SetWorkers(workers)
	defer func() {
		sweep.SetWorkers(prevWorkers)
		trace.SetDefault(prevTracer)
	}()
	err := sweep.Run(4, func(i int, tr trace.Tracer) error {
		_, err := uts.Run(uts.Config{
			Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
			Tree: uts.Small(8000), Seed: int64(i + 1), Tracer: tr,
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return marshal(t, rec.Export())
}

// TestAnalysisParallelInvariance: the exported analysis must be
// byte-identical at any sweep worker count.
func TestAnalysisParallelInvariance(t *testing.T) {
	base := sweepExport(t, 1)
	if len(base) == 0 {
		t.Fatal("empty export")
	}
	for _, w := range []int{2, 8} {
		if got := sweepExport(t, w); !bytes.Equal(got, base) {
			t.Errorf("analysis bytes at %d workers differ from 1 worker", w)
		}
	}
}

// TestExportRoundTrip: WriteFile/LoadExport preserve the analysis.
func TestExportRoundTrip(t *testing.T) {
	rec := NewRecorder()
	if _, err := upc.Run(upcCfg(rec, 4, 2), func(th *upc.Thread) {
		th.Barrier()
	}); err != nil {
		t.Fatal(err)
	}
	exp := rec.Export()
	path := t.TempDir() + "/a.json"
	if err := exp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadExport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(marshal(t, exp), marshal(t, got)) {
		t.Error("export did not round-trip")
	}
	var sum strings.Builder
	exp.Summary(&sum, 3)
	if !strings.Contains(sum.String(), "critical path") {
		t.Errorf("summary missing critical path:\n%s", sum.String())
	}
}

// TestRecorderConcatenatesRuns: a recorder fed three runs exports what
// three single-run recorders export, concatenated: the runs in order,
// summed makespans and totals, and summed folded stacks.
func TestRecorderConcatenatesRuns(t *testing.T) {
	all := NewRecorder()
	var singles []*Recorder
	for i := 0; i < 3; i++ {
		one := NewRecorder()
		singles = append(singles, one)
		if _, err := uts.Run(uts.Config{
			Threads: 8, PerNode: 4, Strategy: uts.LocalRapid,
			Tree: uts.Small(4000), Seed: int64(i + 1), Tracer: trace.Multi(all, one),
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := &Export{Runs: []RunAnalysis{}}
	cats := map[string]int64{}
	folded := map[string]int64{}
	for _, one := range singles {
		e := one.Export()
		if len(e.Runs) != 1 {
			t.Fatalf("single recorder holds %d runs, want 1", len(e.Runs))
		}
		want.Runs = append(want.Runs, e.Runs...)
		want.TotalMakespanNS += e.TotalMakespanNS
		for _, s := range e.Totals {
			cats[s.Category] += s.NS
		}
		for _, line := range strings.Split(strings.TrimSpace(one.FoldedText()), "\n") {
			k, v, _ := strings.Cut(line, " ")
			ns, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Fatalf("bad folded line %q", line)
			}
			folded[k] += ns
		}
	}
	want.Totals = segmentList(cats, want.TotalMakespanNS)
	if got := all.Export(); !bytes.Equal(marshal(t, got), marshal(t, want)) {
		t.Errorf("three-run export differs from the single runs' concatenated:\n%s\nwant\n%s",
			marshal(t, got), marshal(t, want))
	}
	keys := make([]string, 0, len(folded))
	for k := range folded {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s %d\n", k, folded[k])
	}
	if got := all.FoldedText(); got != sb.String() {
		t.Errorf("three-run folded text:\n%s\nwant the single runs' summed:\n%s", got, sb.String())
	}
}

// waitingRun feeds rec one run in which proc 0 waits at a barrier, and
// arms a finalizer on each of the run's proc states that signals freed.
func waitingRun(rec *Recorder, seed int64, freed *atomic.Int32) {
	for _, e := range []trace.Event{
		{Kind: trace.KRunBegin, Proc: trace.EngineProc, Arg: seed},
		{Time: 0, Kind: trace.KProcSpawn, Proc: 0, Name: "p0"},
		{Time: 0, Kind: trace.KProcSpawn, Proc: 1, Name: "p1"},
		{Time: 1, Kind: trace.KProcPark, Proc: 0, Aux: "barrier"},
		{Time: 5, Kind: trace.KProcUnpark, Proc: 0},
		{Time: 6, Kind: trace.KProcExit, Proc: 0},
		{Time: 7, Kind: trace.KProcExit, Proc: 1},
	} {
		rec.Emit(e)
	}
	for _, ps := range rec.cur.procs {
		if ps != nil {
			runtime.SetFinalizer(ps, func(*procState) { freed.Add(1) })
		}
	}
}

// TestRecorderDropsClosedRuns: the KRunBegin that opens a run closes the
// previous one, and the recorder keeps nothing of its proc states.
func TestRecorderDropsClosedRuns(t *testing.T) {
	rec := NewRecorder()
	var freed atomic.Int32
	waitingRun(rec, 1, &freed)
	waitingRun(rec, 2, &freed)
	if len(rec.runs) != 1 || rec.runs[0].Seed != 1 || rec.runs[0].Waits != 1 {
		t.Fatalf("closed runs = %+v, want run 1 with its barrier wait", rec.runs)
	}
	if rec.cur.seed != 2 || len(rec.cur.order) != 2 {
		t.Fatalf("open run: seed %d, %d procs", rec.cur.seed, len(rec.cur.order))
	}
	for i := 0; i < 1000 && freed.Load() < 2; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if n := freed.Load(); n != 2 {
		t.Fatalf("%d of run 1's 2 proc states were freed after it closed", n)
	}
	if exp := rec.Export(); len(exp.Runs) != 2 || exp.Runs[1].Seed != 2 {
		t.Fatalf("export holds %+v", exp.Runs)
	}
}

// TestExportIdempotent: Export and FoldedText answer the same however
// often they are called.
func TestExportIdempotent(t *testing.T) {
	rec := NewRecorder()
	var freed atomic.Int32
	waitingRun(rec, 1, &freed)
	waitingRun(rec, 2, &freed)
	e1, f1 := rec.Export(), rec.FoldedText()
	b1 := marshal(t, e1)
	e2, f2 := rec.Export(), rec.FoldedText()
	if e1 != e2 || !bytes.Equal(b1, marshal(t, e2)) || f1 != f2 {
		t.Error("a second Export or FoldedText differs from the first")
	}
	if len(e1.Runs) != 2 || f1 == "" {
		t.Errorf("export holds %d runs, folded text %q", len(e1.Runs), f1)
	}
}
