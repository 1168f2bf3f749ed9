package sim

import (
	"testing"

	"repro/internal/trace"
)

// traceScenario runs a tiny two-proc simulation exercising spans,
// instants, counters, parks and resource waits on engine e.
func traceScenario(e *Engine) {
	var ready Event
	var srv Server
	e.Go("worker0", func(p *Proc) {
		end := p.TraceSpan("test", "phase")
		p.Advance(10 * Microsecond)
		ready.Fire()
		end()
		p.TraceCounter("test", "items", 3)
	})
	e.Go("worker1", func(p *Proc) {
		ready.Wait(p) // parks until worker0 fires
		srv.Delay(p, 5*Microsecond)
		p.TraceInstant("test", "done", "ok", 1, 2)
	})
	if err := e.Run(); err != nil {
		panic(err)
	}
}

func TestEngineLifecycleEvents(t *testing.T) {
	buf := trace.NewBuffer()
	e := New(42)
	e.SetTracer(buf)
	traceScenario(e)

	kinds := map[trace.Kind]int{}
	spans := map[string][]int64{} // closed span durations by cat/name
	open := map[int32][]trace.Event{}
	var items, doneN, doneSum int64
	for _, ev := range buf.Events() {
		kinds[ev.Kind]++
		switch ev.Kind {
		case trace.KSpanBegin:
			open[ev.Proc] = append(open[ev.Proc], ev)
		case trace.KSpanEnd:
			stack := open[ev.Proc]
			b := stack[len(stack)-1]
			open[ev.Proc] = stack[:len(stack)-1]
			k := b.Cat + "/" + b.Name
			spans[k] = append(spans[k], ev.Time-b.Time)
		case trace.KCounter:
			if ev.Name == "items" {
				items += ev.Arg
			}
		case trace.KInstant:
			if ev.Cat == "test" && ev.Name == "done" {
				doneN++
				doneSum += ev.Arg
			}
		}
	}
	if got := kinds[trace.KProcSpawn]; got != 2 {
		t.Errorf("spawn events = %d, want 2", got)
	}
	if got := kinds[trace.KProcExit]; got != 2 {
		t.Errorf("exit events = %d, want 2", got)
	}
	if kinds[trace.KProcPark] == 0 || kinds[trace.KProcUnpark] == 0 {
		t.Error("no park/unpark events recorded")
	}
	if got := len(spans["test/phase"]); got != 1 {
		t.Errorf("test/phase span count = %d, want 1", got)
	}
	if items != 3 {
		t.Errorf("items counter = %d, want 3", items)
	}
	if doneN != 1 || doneSum != 1 {
		t.Errorf("test/done instants = %d with Arg sum %d, want 1 and 1", doneN, doneSum)
	}
}

func TestTraceDeterministic(t *testing.T) {
	run := func() uint64 {
		d := trace.NewDigest()
		e := New(7)
		e.SetTracer(d)
		traceScenario(e)
		return d.Sum64()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same-seed runs diverged: %016x vs %016x", a, b)
	}
	// A different seed alone keeps this scenario's schedule identical (no
	// Rand use), so perturb virtual time instead to prove sensitivity.
	d := trace.NewDigest()
	e := New(7)
	e.SetTracer(d)
	e.Go("extra", func(p *Proc) { p.Advance(1) })
	traceScenario(e)
	if d.Sum64() == a {
		t.Fatal("a different schedule produced the same digest")
	}
}

// TestNilTracerNoAlloc verifies the zero-cost fast path: with no tracer
// installed, every hook must be allocation-free.
func TestNilTracerNoAlloc(t *testing.T) {
	e := New(1)
	done := make(chan struct{})
	e.Go("probe", func(p *Proc) {
		allocs := testing.AllocsPerRun(100, func() {
			end := p.TraceSpan("cat", "name")
			end()
			end = p.TraceSpanArg("cat", "name", "aux", 1)
			end()
			p.TraceInstant("cat", "name", "aux", 1, 2)
			p.TraceCounter("cat", "name", 1)
			e.TraceInstant("cat", "name", "aux", 1, 2)
		})
		if allocs != 0 {
			t.Errorf("nil-tracer hooks allocated %.1f times per run, want 0", allocs)
		}
		close(done)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	<-done
}

// spanStack is a tracer that checks span nesting: every end record
// must close the innermost open span of its process.
type spanStack struct {
	open      map[int32][]string
	ends, bad int
}

func (s *spanStack) Emit(e trace.Event) {
	switch e.Kind {
	case trace.KSpanBegin:
		s.open[e.Proc] = append(s.open[e.Proc], e.Name)
	case trace.KSpanEnd:
		s.ends++
		st := s.open[e.Proc]
		if n := len(st); n == 0 || st[n-1] != e.Name {
			s.bad++
		} else {
			s.open[e.Proc] = st[:n-1]
		}
	}
}

// TestTracedSpanNoAlloc: with a tracer installed, span closers come
// from the engine's pool, so warm nested spans allocate nothing. A
// second call to a closer emits no second end record and does not put
// the closer back in the pool twice.
func TestTracedSpanNoAlloc(t *testing.T) {
	e := New(1)
	tr := &spanStack{open: map[int32][]string{}}
	e.SetTracer(tr)
	e.Go("probe", func(p *Proc) {
		allocs := testing.AllocsPerRun(100, func() {
			outer := p.TraceSpanArg("cat", "outer", "aux", 1)
			inner := p.TraceSpan("cat", "inner")
			inner()
			outer()
		})
		if allocs != 0 {
			t.Errorf("traced spans allocated %.1f times per run, want 0", allocs)
		}
		end := p.TraceSpan("cat", "twice")
		end()
		end()
		if st := e.spanEnds.Stats(); st.Outstanding() != 0 || st.Idle != 2 {
			t.Errorf("after a double close the pool holds %+v, want 2 idle closers", st)
		}
		a := p.TraceSpan("cat", "a")
		b := p.TraceSpan("cat", "b")
		b()
		a()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := 2*101 + 3; tr.ends != want || tr.bad != 0 {
		t.Errorf("%d span ends, %d out of order; want %d in order", tr.ends, tr.bad, want)
	}
}

// BenchmarkTracerNil measures the untraced hot path (nil-check only).
func BenchmarkTracerNil(b *testing.B) {
	benchTracer(b, nil)
}

// BenchmarkTracerDigest measures the same path with hashing on.
func BenchmarkTracerDigest(b *testing.B) {
	benchTracer(b, trace.NewDigest())
}

func benchTracer(b *testing.B, tr trace.Tracer) {
	e := New(1)
	if tr != nil {
		e.SetTracer(tr)
	}
	e.Go("bench", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			end := p.TraceSpan("bench", "span")
			p.TraceInstant("bench", "instant", "", int64(i), 0)
			p.TraceCounter("bench", "counter", 1)
			end()
		}
	})
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
