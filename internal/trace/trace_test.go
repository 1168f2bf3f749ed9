package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

// sample builds a small, well-formed event stream: two runs, spans,
// instants and counters across two procs plus the engine track.
func sample() []Event {
	return []Event{
		{Kind: KRunBegin, Proc: EngineProc, Cat: "sim", Name: "run", Arg: 1},
		{Time: 0, Kind: KProcSpawn, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 0, Kind: KProcSpawn, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 10, Kind: KSpanBegin, Proc: 0, Cat: "upc", Name: "barrier"},
		{Time: 15, Kind: KSpanBegin, Proc: 1, Cat: "upc", Name: "barrier"},
		{Time: 20, Kind: KClock, Proc: EngineProc, Cat: "sim", Name: "clock", Arg: 20},
		{Time: 20, Kind: KInstant, Proc: 0, Cat: "fabric", Name: "put", Aux: "ibv-qdr", Arg: 4096, Arg2: 1},
		{Time: 25, Kind: KSpanEnd, Proc: 0, Cat: "upc", Name: "barrier"},
		{Time: 25, Kind: KSpanEnd, Proc: 1, Cat: "upc", Name: "barrier"},
		{Time: 30, Kind: KCounter, Proc: 0, Cat: "uts", Name: "steals", Arg: 3},
		{Time: 40, Kind: KCounter, Proc: 1, Cat: "uts", Name: "steals", Arg: 2},
		{Time: 50, Kind: KProcPark, Proc: 1, Cat: "sim", Name: "upc1", Aux: "advance"},
		{Time: 60, Kind: KProcUnpark, Proc: 1, Cat: "sim", Name: "upc1"},
		{Time: 70, Kind: KProcExit, Proc: 0, Cat: "sim", Name: "upc0"},
		{Time: 70, Kind: KProcExit, Proc: 1, Cat: "sim", Name: "upc1"},
		{Kind: KRunBegin, Proc: EngineProc, Cat: "sim", Name: "run", Arg: 2},
		{Time: 5, Kind: KProcSpawn, Proc: 0, Cat: "sim", Name: "main"},
		{Time: 9, Kind: KSpanBegin, Proc: 0, Cat: "ft", Name: "fft2d"},
		// Left open: daemons parked at simulation end; Export must close it.
	}
}

func TestDigestDeterministic(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	for _, e := range sample() {
		a.Emit(e)
		b.Emit(e)
	}
	if a.Sum64() != b.Sum64() {
		t.Fatalf("same stream, different digests: %s vs %s", a, b)
	}
	if a.Events() != int64(len(sample())) {
		t.Fatalf("digest counted %d events, want %d", a.Events(), len(sample()))
	}
}

func TestDigestSensitive(t *testing.T) {
	base := NewDigest()
	for _, e := range sample() {
		base.Emit(e)
	}
	mutations := []func(*Event){
		func(e *Event) { e.Time++ },
		func(e *Event) { e.Proc++ },
		func(e *Event) { e.Arg++ },
		func(e *Event) { e.Aux = e.Aux + "x" },
		func(e *Event) { e.Name = "other" },
	}
	for i, mut := range mutations {
		d := NewDigest()
		evs := sample()
		mut(&evs[6])
		for _, e := range evs {
			d.Emit(e)
		}
		if d.Sum64() == base.Sum64() {
			t.Errorf("mutation %d did not change the digest", i)
		}
	}
	// Order sensitivity: swapping two events must change the hash.
	d := NewDigest()
	evs := sample()
	evs[3], evs[4] = evs[4], evs[3]
	for _, e := range evs {
		d.Emit(e)
	}
	if d.Sum64() == base.Sum64() {
		t.Error("reordering events did not change the digest")
	}
}

func TestMultiAndTee(t *testing.T) {
	a, b := NewDigest(), NewDigest()
	m := Multi(nil, a, nil, b)
	for _, e := range sample() {
		m.Emit(e)
	}
	if a.Sum64() != b.Sum64() || a.Events() == 0 {
		t.Fatal("Multi did not fan out to both sinks")
	}
	if Tee(nil, nil) != nil {
		t.Error("Tee(nil, nil) should be nil")
	}
	if got := Tee(a, nil); got != Tracer(a) {
		t.Error("Tee(a, nil) should be a itself")
	}
	if got := Tee(nil, b); got != Tracer(b) {
		t.Error("Tee(nil, b) should be b itself")
	}
}

// optSink logs its name to a shared list on every event and answers the
// opt-ins it was built with.
type optSink struct {
	name              string
	log               *[]string
	clock, util, edge bool
}

func (s *optSink) Emit(Event)         { *s.log = append(*s.log, s.name) }
func (s *optSink) ObserveClock() bool { return s.clock }
func (s *optSink) ObserveUtil() bool  { return s.util }
func (s *optSink) ObserveEdge() bool  { return s.edge }

// TestMultiFlattens: a Multi nested in a Multi contributes its sinks in
// place, so delivery takes one flat fan-out in the original order and
// the opt-ins answer as before.
func TestMultiFlattens(t *testing.T) {
	var log []string
	a := &optSink{name: "a", log: &log, clock: true}
	b := &optSink{name: "b", log: &log, util: true}
	c := &optSink{name: "c", log: &log}
	for _, tc := range []struct {
		name              string
		m                 Tracer
		clock, util, edge bool
	}{
		{"Multi(Multi(a, b), c)", Multi(Multi(a, b), c), true, true, false},
		{"Multi(c, Multi(a, b))", Multi(c, Multi(a, b)), true, true, false},
		{"Tee(Tee(c, c), c)", Tee(Tee(c, c), c), false, false, false},
		{"Multi(a, Multi(b, Multi(c, a)))", Multi(a, Multi(b, Multi(c, a))), true, true, false},
	} {
		m, ok := tc.m.(multi)
		if !ok {
			t.Fatalf("%s: got %T, want a multi", tc.name, tc.m)
		}
		for _, s := range m {
			if _, nested := s.(multi); nested {
				t.Fatalf("%s: holds a nested multi", tc.name)
			}
		}
		log = nil
		tc.m.Emit(Event{})
		want := strings.Fields(strings.NewReplacer("Multi", "", "Tee", "", "(", " ", ")", " ", ",", " ").Replace(tc.name))
		if strings.Join(log, ",") != strings.Join(want, ",") {
			t.Errorf("%s delivered to %v, want %v", tc.name, log, want)
		}
		if WantsClock(tc.m) != tc.clock || WantsUtil(tc.m) != tc.util || WantsEdge(tc.m) != tc.edge {
			t.Errorf("%s: opt-ins clock=%v util=%v edge=%v, want %v %v %v", tc.name,
				WantsClock(tc.m), WantsUtil(tc.m), WantsEdge(tc.m), tc.clock, tc.util, tc.edge)
		}
	}
	e := &optSink{name: "e", log: &log, edge: true}
	if m := Multi(Multi(a, b), e); !WantsClock(m) || !WantsUtil(m) || !WantsEdge(m) {
		t.Error("flattened Multi lost an opt-in")
	}
}

// chromeDoc mirrors the trace-event JSON for round-trip validation.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestChromeExportWellFormed(t *testing.T) {
	w := NewChromeWriter()
	for _, e := range sample() {
		w.Emit(e)
	}
	var buf bytes.Buffer
	if err := w.Export(&buf); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no events exported")
	}

	// Per (pid, tid): timestamps monotone non-decreasing, B/E balanced
	// (every B eventually closed, no E without a B).
	type track struct{ pid, tid int }
	lastTs := map[track]float64{}
	depth := map[track]int{}
	pids := map[int]bool{}
	for _, ce := range doc.TraceEvents {
		pids[ce.Pid] = true
		k := track{ce.Pid, ce.Tid}
		if ce.Ph == "M" {
			continue // metadata records carry no timestamp
		}
		if ce.Ts < lastTs[k] {
			t.Fatalf("track %v: ts went backwards (%v after %v)", k, ce.Ts, lastTs[k])
		}
		lastTs[k] = ce.Ts
		switch ce.Ph {
		case "B":
			depth[k]++
		case "E":
			depth[k]--
			if depth[k] < 0 {
				t.Fatalf("track %v: E without matching B", k)
			}
		}
	}
	tracks := make([]track, 0, len(depth))
	for k := range depth {
		tracks = append(tracks, k)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, k := range tracks {
		if depth[k] != 0 {
			t.Errorf("track %v: %d unclosed spans after export", k, depth[k])
		}
	}
	// Two KRunBegin boundaries must become two process groups.
	if len(pids) != 2 {
		t.Errorf("got %d pids, want 2 (one per run)", len(pids))
	}
}

func TestSessionDefaultTracer(t *testing.T) {
	if Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	s := StartSession("") // digest only, no file
	if Default() == nil {
		t.Fatal("StartSession did not install a default tracer")
	}
	Default().Emit(Event{Kind: KRunBegin})
	Default().Emit(Event{Time: 1, Kind: KInstant, Proc: 0, Cat: "x", Name: "y"})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if Default() != nil {
		t.Error("Close did not restore the previous default tracer")
	}
	if s.Events() != 2 {
		t.Errorf("session saw %d events, want 2", s.Events())
	}
	if s.Digest() == 0 {
		t.Error("session digest is zero")
	}
}

// sharer records the digest Session.Attach hands it.
type sharer struct {
	Digest
	got *Digest
}

func (s *sharer) ShareDigest(d *Digest) { s.got = d }

func TestAttachSharesDigestOnlyBeforeFirstEvent(t *testing.T) {
	if Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	s := StartSession("")
	early := &sharer{}
	s.Attach(early)
	if early.got != s.dg {
		t.Error("a sink attached before the first event was not handed the session digest")
	}
	Default().Emit(Event{Kind: KRunBegin})
	late := &sharer{}
	s.Attach(late)
	if late.got != nil {
		t.Error("a sink attached after the first event was handed the session digest")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
