package uts

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/perf"
	"repro/internal/trace"
)

// sortedCounterNames returns the counter names in sorted order, so
// comparison failures print deterministically (the maporder invariant).
func sortedCounterNames(c perf.Counters) []string {
	names := make([]string, 0, len(c))
	for name := range c {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func tracedConfig(tr trace.Tracer) Config {
	return Config{
		Threads:  8,
		PerNode:  2,
		Strategy: LocalRapid,
		Tree:     Small(20000),
		Seed:     3,
		Tracer:   tr,
	}
}

// TestTraceCountersMatch verifies that the trace-fed counters reproduce
// the app's ad-hoc ones exactly — the property that lets Table 3.2 read
// its steal percentages from a metrics Collection: every counter.* total
// equals the app's counter, no extra counter appears, and the uts/steal
// instants sum to the steals counter.
func TestTraceCountersMatch(t *testing.T) {
	coll := metrics.NewCollection()
	r, err := Run(tracedConfig(coll))
	if err != nil {
		t.Fatal(err)
	}
	m := coll.Manifest("uts-test", nil)
	for _, name := range sortedCounterNames(r.Counters) {
		if got := m.Counters["counter."+name]; got != r.Counters[name] {
			t.Errorf("trace counter %s = %d, app counter = %d", name, got, r.Counters[name])
		}
	}
	for _, key := range sortedCounterNames(m.Counters) {
		name, ok := strings.CutPrefix(key, "counter.")
		if _, app := r.Counters[name]; ok && !app {
			t.Errorf("trace has counter %s the app does not", name)
		}
	}
	steals := m.Counters["counter.steals"]
	if steals == 0 {
		t.Error("no steals recorded; the scenario is too small to exercise stealing")
	}
	if n := m.Counters["instant.uts/steal.n"]; n != steals {
		t.Errorf("steal instants = %d, steals counter = %d", n, steals)
	}
}

// TestStealsByThreadMatchTrace checks Result.StealsByThread against the
// stream: every thread's entry — zero included — equals the number of
// uts/steal instants its proc emitted. Procs are mapped to thread ids by
// their spawn names ("upc<id>").
func TestStealsByThreadMatchTrace(t *testing.T) {
	buf := trace.NewBuffer()
	cfg := tracedConfig(buf)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	thread := map[int32]int{}
	got := make([]int64, cfg.Threads)
	for _, e := range buf.Events() {
		switch {
		case e.Kind == trace.KProcSpawn:
			var id int
			if _, err := fmt.Sscanf(e.Name, "upc%d", &id); err == nil {
				thread[e.Proc] = id
			}
		case e.Kind == trace.KInstant && e.Cat == "uts" && e.Name == "steal":
			id, ok := thread[e.Proc]
			if !ok {
				t.Fatalf("steal from proc %d, which is no worker", e.Proc)
			}
			got[id]++
		}
	}
	if len(r.StealsByThread) != cfg.Threads {
		t.Fatalf("%d per-thread entries, want %d", len(r.StealsByThread), cfg.Threads)
	}
	var total int64
	for id, n := range r.StealsByThread {
		if n != got[id] {
			t.Errorf("thread %d steals = %d, trace has %d", id, n, got[id])
		}
		total += n
	}
	if total == 0 || total != r.Counters.Get("steals") {
		t.Errorf("per-thread steals sum to %d, steals counter = %d", total, r.Counters.Get("steals"))
	}
}

// TestTraceDigestDeterministic asserts the CI-gated property: two
// same-seed runs produce identical TraceDigests.
func TestTraceDigestDeterministic(t *testing.T) {
	run := func(seed int64) (uint64, int64) {
		d := trace.NewDigest()
		cfg := tracedConfig(d)
		cfg.Seed = seed
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return d.Sum64(), d.Events()
	}
	h1, n1 := run(3)
	h2, n2 := run(3)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("same-seed runs diverged: %016x (%d events) vs %016x (%d events)", h1, n1, h2, n2)
	}
	if n1 == 0 {
		t.Fatal("no events traced")
	}
}
