package sim

import "repro/internal/trace"

// Tracing support. An engine optionally carries a trace.Tracer; when none
// is installed every hook below is a single nil check (verified
// allocation-free by TestNilTracerNoAlloc and BenchmarkTracerNil), so
// model code calls these unconditionally.

// SetTracer installs tr as the engine's event sink (nil disables
// tracing). Install before the simulation starts; swapping mid-run would
// leave sinks with unbalanced spans. Per-advance KClock events are only
// emitted when the sink opts in (see trace.ClockObserver); no built-in sink
// needs them, which keeps traced clock advances cheap.
func (e *Engine) SetTracer(tr trace.Tracer) {
	e.tracer = tr
	e.clock = trace.WantsClock(tr)
}

// Tracer reports the installed event sink, or nil.
func (e *Engine) Tracer() trace.Tracer { return e.tracer }

// Tracing reports whether an event sink is installed. Emitters computing
// a nontrivial payload (e.g. a queue occupancy) should guard on it.
func (e *Engine) Tracing() bool { return e.tracer != nil }

// emit stamps the current virtual time on an event and delivers it. The
// caller must have checked e.tracer != nil.
func (e *Engine) emit(k trace.Kind, proc int32, cat, name, aux string, arg, arg2 int64) {
	e.tracer.Emit(trace.Event{
		Time: int64(e.now), Kind: k, Proc: proc,
		Cat: cat, Name: name, Aux: aux, Arg: arg, Arg2: arg2,
	})
}

// TraceInstant emits a point event from engine context (completion
// callbacks); the event lands on the engine track.
func (e *Engine) TraceInstant(cat, name, aux string, arg, arg2 int64) {
	if e.tracer != nil {
		e.emit(trace.KInstant, trace.EngineProc, cat, name, aux, arg, arg2)
	}
}

// TraceInstant emits a point event on this process's track.
func (p *Proc) TraceInstant(cat, name, aux string, arg, arg2 int64) {
	if e := p.eng; e.tracer != nil {
		e.emit(trace.KInstant, int32(p.id), cat, name, aux, arg, arg2)
	}
}

// TraceCounter adds delta to the named trace counter.
func (p *Proc) TraceCounter(cat, name string, delta int64) {
	if e := p.eng; e.tracer != nil {
		e.emit(trace.KCounter, int32(p.id), cat, name, "", delta, 0)
	}
}

// noopEnd is the shared span closer of the untraced fast path: returning
// it keeps TraceSpan allocation-free when no tracer is installed.
var noopEnd = func() {}

// TraceSpan opens a named span on this process's track and returns its
// closer. Spans may nest; close them in LIFO order.
func (p *Proc) TraceSpan(cat, name string) func() {
	return p.TraceSpanArg(cat, name, "", 0)
}

// TraceSpanArg is TraceSpan with an auxiliary label and payload on the
// opening record. The closer comes from the engine's pool, so a traced
// span allocates nothing once the pool holds as many closers as spans
// are ever open at once. Call it once: a closer goes back to the pool
// when called, and a later call is a no-op only until the pool hands
// it out again.
func (p *Proc) TraceSpanArg(cat, name, aux string, arg int64) func() {
	e := p.eng
	if e.tracer == nil {
		return noopEnd
	}
	id := int32(p.id)
	e.emit(trace.KSpanBegin, id, cat, name, aux, arg, 0)
	s := e.spanEnds.Get()
	if s.end == nil {
		s.eng, s.end = e, s.close // bound once per pooled closer
	}
	s.proc, s.cat, s.name, s.open = id, cat, name, true
	return s.end
}

// spanEnd is a pooled span closer: end, its close method value, is
// what TraceSpanArg returns.
type spanEnd struct {
	eng       *Engine
	proc      int32
	cat, name string
	open      bool
	end       func()
}

// close emits the span's end record and returns the closer to its pool;
// a second call finds the span closed and does nothing.
func (s *spanEnd) close() {
	if !s.open {
		return
	}
	s.open = false
	e := s.eng
	e.emit(trace.KSpanEnd, s.proc, s.cat, s.name, "", 0, 0)
	e.spanEnds.Put(s)
}
