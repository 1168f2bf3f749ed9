package ft

import (
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// TestTracePhasesMatchFigure44 verifies the acceptance property of the
// tracing layer on FT: the per-phase spans aggregated from the trace
// reproduce the Figure 4.4 breakdown the run itself reports (maximum
// per-thread total of each phase).
func TestTracePhasesMatchFigure44(t *testing.T) {
	cls, _ := ClassByName("A")
	for _, variant := range []Variant{UPCProcesses, MPIFortran} {
		buf := trace.NewBuffer()
		r, err := Run(Config{
			Machine: topo.Lehman(), Class: cls, Variant: variant,
			Threads: 4, PerNode: 2, Seed: 5, Tracer: buf,
		})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		got := spanPhases(buf, "ft")
		if len(got) == 0 {
			t.Fatalf("%v: no ft phase spans in the trace", variant)
		}
		for _, phase := range sortedKeys(r.Phases) {
			if got[phase] != r.Phases[phase] {
				t.Errorf("%v: trace phase %s = %v, Phases reports %v", variant, phase, got[phase], r.Phases[phase])
			}
		}
		for _, phase := range sortedKeys(got) {
			if _, ok := r.Phases[phase]; !ok {
				t.Errorf("%v: trace has phase %s the result does not", variant, phase)
			}
		}
		if r.Phases["comm-call"] <= 0 || got["comm-call"] <= 0 {
			t.Errorf("%v: comm-call phase empty (result %v, trace %v)",
				variant, r.Phases["comm-call"], got["comm-call"])
		}
	}
}

// TestTraceOverlapPhasesMatch checks the overlapped implementation, whose
// fft2d and comm-call timers cover interleaved intervals: the live spans
// must still reproduce the reported totals.
func TestTraceOverlapPhasesMatch(t *testing.T) {
	cls, _ := ClassByName("A")
	buf := trace.NewBuffer()
	r, err := Run(Config{
		Machine: topo.Lehman(), Class: cls, Variant: UPCProcesses, Impl: Overlap,
		Threads: 4, PerNode: 2, Seed: 5, Tracer: buf,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := spanPhases(buf, "ft")
	for _, phase := range []string{"fft2d", "comm-call", "comm-wait"} {
		if got[phase] != r.Phases[phase] {
			t.Errorf("trace phase %s = %v, Phases reports %v", phase, got[phase], r.Phases[phase])
		}
		if r.Phases[phase] <= sim.Duration(0) {
			t.Errorf("phase %s reported as empty", phase)
		}
	}
}

// spanPhases rebuilds a phase breakdown from the buffered stream: for
// each span name under cat, the largest per-proc summed duration — the
// cross-thread maximum Result.Phases reports.
func spanPhases(buf *trace.Buffer, cat string) map[string]sim.Duration {
	open := map[int32][]trace.Event{}
	byProc := map[string]map[int32]int64{}
	for _, e := range buf.Events() {
		switch e.Kind {
		case trace.KSpanBegin:
			open[e.Proc] = append(open[e.Proc], e)
		case trace.KSpanEnd:
			stack := open[e.Proc]
			b := stack[len(stack)-1]
			open[e.Proc] = stack[:len(stack)-1]
			if b.Cat != cat {
				continue
			}
			if byProc[b.Name] == nil {
				byProc[b.Name] = map[int32]int64{}
			}
			byProc[b.Name][e.Proc] += e.Time - b.Time
		}
	}
	out := map[string]sim.Duration{}
	for name, procs := range byProc {
		for _, d := range procs {
			if sim.Duration(d) > out[name] {
				out[name] = sim.Duration(d)
			}
		}
	}
	return out
}

// sortedKeys returns the map's keys in sorted order, so comparison
// failures print deterministically (the maporder invariant).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
