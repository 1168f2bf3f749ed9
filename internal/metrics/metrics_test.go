package metrics

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/causality"
	"repro/internal/trace"
)

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Add("a", 2)
	r.Add("a", 3)
	r.Add("b", 1)
	if got := r.Counter("a"); got != 5 {
		t.Errorf("Counter(a) = %d, want 5", got)
	}
	*r.gauge("g", 7) = 7
	setMax(r.gauge("g", 3), 3)
	if got := r.Gauge("g"); got != 7 {
		t.Errorf("Gauge(g) = %d, want 7 (SetMax must not lower)", got)
	}
	setMax(r.gauge("g", 11), 11)
	if got := r.Gauge("g"); got != 11 {
		t.Errorf("Gauge(g) = %d, want 11", got)
	}
	for _, v := range []int64{0, 1, 1500} {
		r.hist("h", v).observe(v)
	}
	h := r.Hist("h")
	if h.Count != 3 || h.Sum != 1501 || h.Min != 0 || h.Max != 1500 {
		t.Errorf("hist = %+v", h)
	}
	if h.Bucket(0) != 1 || h.Bucket(1) != 1 || h.Bucket(11) != 1 {
		t.Errorf("buckets: 0=%d 1=%d 11=%d, want 1 each", h.Bucket(0), h.Bucket(1), h.Bucket(11))
	}
	hx := r.Histograms()
	if len(hx) != 1 || hx[0].Name != "h" || len(hx[0].Buckets) != 3 {
		t.Errorf("Histograms() = %+v", hx)
	}
}

func commEvent(op, class string, bytes int64, st, dt, sn, dn int) trace.Event {
	return trace.Event{
		Kind: trace.KInstant, Cat: trace.CatComm, Name: op, Aux: class,
		Arg: bytes, Arg2: trace.PackEndpoints(st, dt, sn, dn),
	}
}

func TestCommMatrix(t *testing.T) {
	m := NewCommMatrix()
	m.Record(commEvent("put", trace.ClassPSHM, 100, 0, 1, 0, 0))
	m.Record(commEvent("put", trace.ClassPSHM, 50, 0, 1, 0, 0))
	m.Record(commEvent("get", trace.ClassNetwork, 400, 2, 0, 1, 0))
	m.Record(commEvent("put", trace.ClassSelf, 8, 3, 3, 1, 1))

	if got := m.Bytes(); got != 558 {
		t.Errorf("Bytes() = %d, want 558", got)
	}
	if got := m.Messages(); got != 4 {
		t.Errorf("Messages() = %d, want 4", got)
	}
	if got := m.ClassBytes(trace.ClassPSHM); got != 150 {
		t.Errorf("ClassBytes(pshm) = %d, want 150", got)
	}
	if got := m.ClassMessages(trace.ClassNetwork); got != 1 {
		t.Errorf("ClassMessages(network) = %d, want 1", got)
	}

	cells := m.Threads()
	want := []ThreadCell{
		{Src: 0, Dst: 1, Class: "pshm", Messages: 2, Bytes: 150},
		{Src: 2, Dst: 0, Class: "network", Messages: 1, Bytes: 400},
		{Src: 3, Dst: 3, Class: "self", Messages: 1, Bytes: 8},
	}
	if !reflect.DeepEqual(cells, want) {
		t.Errorf("Threads() = %+v, want %+v", cells, want)
	}

	nodes := m.Nodes()
	wantNodes := []NodeCell{
		{Src: 0, Dst: 0, Class: "pshm", Messages: 2, Bytes: 150},
		{Src: 1, Dst: 0, Class: "network", Messages: 1, Bytes: 400},
		{Src: 1, Dst: 1, Class: "self", Messages: 1, Bytes: 8},
	}
	if !reflect.DeepEqual(nodes, wantNodes) {
		t.Errorf("Nodes() = %+v, want %+v", nodes, wantNodes)
	}

	classes := m.Classes()
	if len(classes) != 3 || classes[0].Class != "network" || classes[1].Class != "pshm" || classes[2].Class != "self" {
		t.Errorf("Classes() = %+v", classes)
	}
}

// TestThreadsMergeAcrossNodeCoords pins the regression where a sweep
// placing the same thread pair on different machine shapes produced two
// thread cells with identical (src, dst, class) sort keys — unstable
// sort then leaked map order into the export. Thread granularity must
// merge across node coordinates.
func TestThreadsMergeAcrossNodeCoords(t *testing.T) {
	m := NewCommMatrix()
	m.Record(commEvent("put", trace.ClassNetwork, 100, 0, 9, 0, 4)) // 2 threads/node shape
	m.Record(commEvent("put", trace.ClassNetwork, 60, 0, 9, 0, 2))  // 4 threads/node shape
	want := []ThreadCell{{Src: 0, Dst: 9, Class: "network", Messages: 2, Bytes: 160}}
	if got := m.Threads(); !reflect.DeepEqual(got, want) {
		t.Errorf("Threads() = %+v, want one merged cell %+v", got, want)
	}
	// The node matrix keeps the shapes distinct.
	if nodes := m.Nodes(); len(nodes) != 2 {
		t.Errorf("Nodes() = %+v, want 2 cells", nodes)
	}
}

// record feeds one CatLink event to u the way Collection.Emit does.
func record(u *UtilTimelines, e trace.Event) { u.update(u.link(e), e) }

func linkEvent(tm int64, name string, active, cap int64) trace.Event {
	return trace.Event{Time: tm, Kind: trace.KInstant, Cat: trace.CatLink, Name: name, Arg: active, Arg2: cap}
}

func TestUtilTimelines(t *testing.T) {
	u := NewUtilTimelines()
	record(u, linkEvent(100, "nic-tx0", 1, 1e9))
	record(u, linkEvent(300, "nic-tx0", 2, 1e9))
	record(u, linkEvent(500, "nic-tx0", 0, 1e9))
	record(u, linkEvent(900, "nic-tx0", 1, 1e9))
	u.EndRun(1000)

	if got := u.Busy("nic-tx0"); got != 500 {
		t.Errorf("Busy = %d, want 500 (400 + final 100)", got)
	}
	if got := u.Peak("nic-tx0"); got != 2 {
		t.Errorf("Peak = %d, want 2", got)
	}
	e := u.Export()
	if e == nil || len(e.Links) != 1 {
		t.Fatalf("Export() = %+v", e)
	}
	l := e.Links[0]
	if l.ObservedNS != 1000 || l.DepthNS != 1*200+2*200+1*100 {
		t.Errorf("link = %+v, want observed 1000 depth 700", l)
	}
	// All busy time fell inside interval 0 at the initial 1µs width.
	if e.IntervalNS != utilInitialWidth || len(l.Timeline) != 1 || l.Timeline[0].Busy != 500 {
		t.Errorf("timeline = width %d %+v", e.IntervalNS, l.Timeline)
	}
}

func TestUtilRebin(t *testing.T) {
	u := NewUtilTimelines()
	// Busy from 0 to 1ms: needs several rebins past the initial
	// 128µs span; total busy time must be preserved.
	record(u, linkEvent(0, "core0", 1, 0))
	record(u, linkEvent(1_000_000, "core0", 0, 0))
	u.EndRun(1_000_000)
	e := u.Export()
	var total int64
	for _, p := range e.Links[0].Timeline {
		total += p.Busy
	}
	if total != 1_000_000 {
		t.Errorf("timeline total = %d, want 1000000", total)
	}
	if e.IntervalNS*utilIntervals < 1_000_000 {
		t.Errorf("width %d too small for the run", e.IntervalNS)
	}
}

func span(tm int64, kind trace.Kind, proc int32, cat, name string) trace.Event {
	return trace.Event{Time: tm, Kind: kind, Proc: proc, Cat: cat, Name: name}
}

func TestProfile(t *testing.T) {
	p := NewProfile()
	// proc 0: outer [0,1000] containing inner [200,500].
	p.Record(span(0, trace.KSpanBegin, 0, "app", "outer"))
	p.Record(span(200, trace.KSpanBegin, 0, "upc", "barrier"))
	p.Record(span(500, trace.KSpanEnd, 0, "upc", "barrier"))
	p.Record(span(1000, trace.KSpanEnd, 0, "app", "outer"))
	// proc 1: one barrier [100,250].
	p.Record(span(100, trace.KSpanBegin, 1, "upc", "barrier"))
	p.Record(span(250, trace.KSpanEnd, 1, "upc", "barrier"))

	e := p.Export()
	if e == nil || len(e.Phases) != 2 {
		t.Fatalf("Export() = %+v", e)
	}
	byName := map[string]PhaseStat{}
	for _, ph := range e.Phases {
		byName[ph.Name] = ph
	}
	outer := byName["app/outer"]
	if outer.InclusiveNS != 1000 || outer.ExclusiveNS != 700 {
		t.Errorf("outer = %+v, want incl 1000 excl 700", outer)
	}
	bar := byName["upc/barrier"]
	if bar.Count != 2 || bar.InclusiveNS != 450 || bar.ExclusiveNS != 450 {
		t.Errorf("barrier = %+v, want n=2 incl 450 excl 450", bar)
	}

	text := e.FoldedText()
	wantLines := []string{
		"app/outer 700",
		"app/outer;upc/barrier 300",
		"upc/barrier 150",
	}
	for _, l := range wantLines {
		if !strings.Contains(text, l+"\n") {
			t.Errorf("FoldedText missing %q:\n%s", l, text)
		}
	}
}

// TestProfileSkipsUnclosedSpans: a span that opens but never closes
// leaves no phase or folded line, even when a later span nests under it
// and closes.
func TestProfileSkipsUnclosedSpans(t *testing.T) {
	p := NewProfile()
	p.Record(span(0, trace.KSpanBegin, 0, "app", "daemon"))
	p.EndRun()
	if e := p.Export(); e != nil {
		t.Fatalf("Export() of an unclosed span = %+v, want nil", e)
	}
	p.Record(span(0, trace.KSpanBegin, 0, "app", "daemon"))
	p.Record(span(5, trace.KSpanBegin, 0, "upc", "lock"))
	p.Record(span(9, trace.KSpanEnd, 0, "upc", "lock"))
	p.EndRun()
	e := p.Export()
	if e == nil || len(e.Phases) != 1 || e.Phases[0].Name != "upc/lock" {
		t.Fatalf("Export().Phases = %+v, want upc/lock only", e)
	}
	if got := e.FoldedText(); got != "app/daemon;upc/lock 4\n" {
		t.Errorf("FoldedText() = %q", got)
	}
}

// synthEvents is one small synthetic run.
func synthEvents() []trace.Event {
	return []trace.Event{
		{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: 42},
		{Time: 0, Kind: trace.KProcSpawn, Proc: 0, Cat: "sim", Name: "t0"},
		span(10, trace.KSpanBegin, 0, "app", "work"),
		commEvent("put", trace.ClassPSHM, 64, 0, 1, 0, 0),
		linkEvent(20, "mem0", 1, 0),
		linkEvent(40, "mem0", 0, 0),
		{Time: 50, Kind: trace.KCounter, Proc: 0, Name: "steals", Arg: 3},
		{Time: 60, Kind: trace.KInstant, Proc: 0, Cat: "uts", Name: "steal", Arg: 2},
		span(100, trace.KSpanEnd, 0, "app", "work"),
		{Time: 100, Kind: trace.KProcExit, Proc: 0, Cat: "sim", Name: "t0"},
	}
}

// synthStream drives synthEvents through t (a Collection, or a session's
// default tracer chain).
func synthStream(t trace.Tracer) {
	for _, e := range synthEvents() {
		t.Emit(e)
	}
}

func TestCollectionManifest(t *testing.T) {
	c := NewCollection()
	if !trace.WantsUtil(c) {
		t.Fatal("Collection must opt into util events")
	}
	synthStream(c)
	m := c.Manifest("upc-test", map[string]string{"n": "1"})

	if m.Runs != 1 || m.Seeds[0] != 42 || m.Events != 10 || m.VirtualNS != 100 {
		t.Errorf("manifest header = runs %d seeds %v events %d virtual %d", m.Runs, m.Seeds, m.Events, m.VirtualNS)
	}
	if m.Counters["counter.steals"] != 3 {
		t.Errorf("counter.steals = %d", m.Counters["counter.steals"])
	}
	if m.Counters["comm.put.bytes"] != 64 || m.Counters["comm.put.msgs"] != 1 {
		t.Errorf("comm counters = %v", m.Counters)
	}
	if m.Counters["instant.uts/steal.n"] != 1 || m.Counters["instant.uts/steal.sum"] != 2 {
		t.Errorf("instant counters = %v", m.Counters)
	}
	if m.Gauges["util.peak.mem0"] != 1 {
		t.Errorf("gauges = %v", m.Gauges)
	}
	if m.Comm == nil || m.Comm.Classes[0].Class != "pshm" || m.Comm.Classes[0].Bytes != 64 {
		t.Errorf("comm = %+v", m.Comm)
	}
	if m.Util == nil || m.Util.Links[0].BusyNS != 20 {
		t.Errorf("util = %+v", m.Util)
	}
	if m.Profile == nil || m.Profile.Phases[0].Name != "app/work" {
		t.Errorf("profile = %+v", m.Profile)
	}
	if m.Digest == "" || m.Digest == "0000000000000000" {
		t.Errorf("digest = %q", m.Digest)
	}
}

func TestManifestRoundTripAndDiff(t *testing.T) {
	c1 := NewCollection()
	synthStream(c1)
	m1 := c1.Manifest("upc-test", nil)

	path := filepath.Join(t.TempDir(), "m.json")
	if err := m1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(m1, m2, 0); len(d) != 0 {
		t.Errorf("round-trip diff = %+v, want empty", d)
	}

	// Same stream collected twice: identical manifests, identical bytes.
	c3 := NewCollection()
	synthStream(c3)
	m3 := c3.Manifest("upc-test", nil)
	var b1, b3 bytes.Buffer
	if err := m1.Write(&b1); err != nil {
		t.Fatal(err)
	}
	if err := m3.Write(&b3); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b3.Bytes()) {
		t.Error("same stream produced different manifest bytes")
	}

	// A perturbed run must diff: drop the comm event's bytes.
	c4 := NewCollection()
	c4.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc, Cat: "sim", Name: "run", Arg: 42})
	c4.Emit(commEvent("put", trace.ClassPSHM, 32, 0, 1, 0, 0))
	m4 := c4.Manifest("upc-test", nil)
	ds := Diff(m1, m4, 0)
	if len(ds) == 0 {
		t.Fatal("diff of different runs is empty")
	}
	found := false
	for _, d := range ds {
		if d.Name == "digest" && d.Rel == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("diff lacks digest mismatch: %+v", ds)
	}
	// Tolerance 1 suppresses every thresholded delta (Rel never
	// exceeds 1); only the unconditional digest mismatch remains.
	loose := Diff(m1, m4, 1)
	if len(loose) != 1 || loose[0].Name != "digest" {
		t.Errorf("Diff tol=1 = %+v, want only digest", loose)
	}
}

// TestDiffAnalysisBlameRow: two analyses that differ in one blame row
// alone, a field Flatten leaves out, still diff, as the one "analysis"
// delta; an analysis diffed against its own round trip does not.
func TestDiffAnalysisBlameRow(t *testing.T) {
	export := func(blamedNS int64) *causality.Export {
		return &causality.Export{
			Runs: []causality.RunAnalysis{{
				Seed: 1, MakespanNS: 100, Procs: 2, Waits: 1,
				WaitClasses: []causality.WaitClassExport{{
					Class: causality.ClassBarrier, Instances: 1, TotalNS: 40, MaxNS: 40,
					Blamed: []causality.BlameExport{{Thread: "upc1", Instances: 1, NS: blamedNS}},
				}},
			}},
			TotalMakespanNS: 100,
		}
	}
	a := &Manifest{Analysis: export(40)}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := a.Analysis.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	e, err := causality.LoadExport(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(a, &Manifest{Analysis: e}, 0); len(d) != 0 {
		t.Errorf("round-trip diff = %+v, want empty", d)
	}
	d := Diff(a, &Manifest{Analysis: export(30)}, 0)
	if len(d) != 1 || d[0].Name != "analysis" || d[0].Rel != 1 {
		t.Errorf("diff of analyses differing in one blame row = %+v, want only analysis", d)
	}
}

func TestSummary(t *testing.T) {
	c := NewCollection()
	synthStream(c)
	m := c.Manifest("upc-test", nil)
	var b bytes.Buffer
	m.Summary(&b)
	out := b.String()
	for _, want := range []string{"tool=upc-test", "pshm", "mem0", "app/work"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCollectionSharesSessionDigest(t *testing.T) {
	if trace.Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	own := NewCollection()
	synthStream(own) // standalone: hashes for itself
	if own.shared || own.Events() != 10 {
		t.Fatalf("standalone collection shared=%v events=%d, want its own digest of 10", own.shared, own.Events())
	}

	s := trace.StartSession("")
	c := NewCollection()
	s.Attach(c)
	if !c.shared {
		t.Fatal("a collection attached to a fresh session must share its digest")
	}
	synthStream(trace.Default())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Digest() != s.Digest() || c.Events() != s.Events() {
		t.Errorf("shared digest %016x (%d events), session %016x (%d)", c.Digest(), c.Events(), s.Digest(), s.Events())
	}
	if c.Digest() != own.Digest() || c.Events() != own.Events() {
		t.Errorf("shared digest %016x (%d events), standalone %016x (%d)", c.Digest(), c.Events(), own.Digest(), own.Events())
	}
	var a, b bytes.Buffer
	if err := c.Manifest("upc-test", nil).Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := own.Manifest("upc-test", nil).Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("shared and standalone collections of one stream wrote different manifests")
	}
}

func TestLateCollectionKeepsOwnDigest(t *testing.T) {
	if trace.Default() != nil {
		t.Fatal("test requires a clean default tracer")
	}
	evs := synthEvents()
	suffix := NewCollection()
	for _, e := range evs[3:] {
		suffix.Emit(e)
	}

	s := trace.StartSession("")
	for _, e := range evs[:3] {
		trace.Default().Emit(e)
	}
	c := NewCollection()
	s.Attach(c)
	if c.shared {
		t.Fatal("a collection attached after the first event must keep its own digest")
	}
	for _, e := range evs[3:] {
		trace.Default().Emit(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if c.Events() != int64(len(evs)-3) || c.Digest() != suffix.Digest() {
		t.Errorf("late collection digest %016x (%d events), want its suffix's %016x (%d)", c.Digest(), c.Events(), suffix.Digest(), len(evs)-3)
	}
	if s.Events() != int64(len(evs)) || c.Digest() == s.Digest() {
		t.Errorf("session digest %016x (%d events) must cover the whole stream", s.Digest(), s.Events())
	}
}

func TestShareDigestIgnoredAfterOwnEvents(t *testing.T) {
	c := NewCollection()
	c.Emit(synthEvents()[0])
	d := trace.NewDigest()
	c.ShareDigest(d)
	if c.shared || c.Events() != 1 {
		t.Errorf("collection with its own events adopted a shared digest (shared=%v, events=%d)", c.shared, c.Events())
	}
}
