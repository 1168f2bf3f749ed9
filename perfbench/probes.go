package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

// probes instruments a traced run from the outside of each layer's public
// API: busy time of every sink, counts over the stream the sinks see, the
// sweep's buffering high-water mark and its replay time. A nil *probes
// instruments nothing, which is how untraced passes share the code.
type probes struct {
	sinks  map[string]*timedSink // by layer: trace, metrics, causality
	stream streamStats

	manifest, export time.Duration

	// Sweep buffering: events emitted into job tracers, and the peak of
	// those not yet delivered to the session's sinks.
	buffered, peakBuffered atomic.Int64
	mu                     sync.Mutex
	lastJobEnd             time.Time
	replay                 time.Duration
}

func newProbes() *probes { return &probes{sinks: map[string]*timedSink{}} }

// timedSink forwards every event to a sink and adds up the time the sink
// took. It reports the sink's clock, util and edge opt-ins as its own, so
// engines emit exactly the stream, and the digest, they would without it.
type timedSink struct {
	inner trace.Tracer
	busy  time.Duration
	count *streamStats // non-nil on the outermost sink only
}

func (s *timedSink) Emit(e trace.Event) {
	t := time.Now()
	s.inner.Emit(e)
	s.busy += time.Since(t)
	if s.count != nil {
		s.count.add(e)
	}
}

func (s *timedSink) ObserveClock() bool { return trace.WantsClock(s.inner) }
func (s *timedSink) ObserveUtil() bool  { return trace.WantsUtil(s.inner) }
func (s *timedSink) ObserveEdge() bool  { return trace.WantsEdge(s.inner) }

// wrap times sink as the named layer. The "trace" sink sees every event
// first, so it also keeps the stream counts.
func (p *probes) wrap(layer string, sink trace.Tracer) trace.Tracer {
	if p == nil || sink == nil {
		return sink
	}
	s := &timedSink{inner: sink}
	if layer == "trace" {
		s.count = &p.stream
	}
	p.sinks[layer] = s
	return s
}

// busy reports a sink's accumulated time in seconds (0 if not attached).
func (p *probes) busy(layer string) float64 {
	if s := p.sinks[layer]; s != nil {
		return s.busy.Seconds()
	}
	return 0
}

func (p *probes) addManifest(d time.Duration) {
	if p != nil {
		p.manifest += d
	}
}

func (p *probes) addExport(d time.Duration) {
	if p != nil {
		p.export += d
	}
}

// job wraps a sweep job's tracer to count what the job buffers.
func (p *probes) job(tr trace.Tracer) trace.Tracer {
	if p == nil || tr == nil {
		return tr
	}
	return &bufferCount{inner: tr, p: p}
}

// jobDone records a job's end; the last one starts the replay clock.
func (p *probes) jobDone() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.lastJobEnd = time.Now()
	p.mu.Unlock()
}

// sweepReturned stops the replay clock: sweep.Run has replayed every
// buffered stream into the session and returned.
func (p *probes) sweepReturned() {
	if p == nil {
		return
	}
	p.mu.Lock()
	if !p.lastJobEnd.IsZero() {
		p.replay = time.Since(p.lastJobEnd)
	}
	p.mu.Unlock()
}

// bufferCount counts the events one sweep job emits into its private
// buffer and tracks the peak of buffered-but-undelivered events.
type bufferCount struct {
	inner trace.Tracer
	p     *probes
}

func (b *bufferCount) Emit(e trace.Event) {
	b.inner.Emit(e)
	pending := b.p.buffered.Add(1) - b.p.stream.events.Load()
	for {
		peak := b.p.peakBuffered.Load()
		if pending <= peak || b.p.peakBuffered.CompareAndSwap(peak, pending) {
			return
		}
	}
}

func (b *bufferCount) ObserveClock() bool { return trace.WantsClock(b.inner) }
func (b *bufferCount) ObserveUtil() bool  { return trace.WantsUtil(b.inner) }
func (b *bufferCount) ObserveEdge() bool  { return trace.WantsEdge(b.inner) }

// streamStats counts the events delivered to the session's sinks.
type streamStats struct {
	events atomic.Int64 // read concurrently by bufferCount
	parks  int64        // process parks: one engine handoff each
	links  int64        // link-occupancy instants (util opt-in)
	// Network transfers in flight, between each fabric put/get instant
	// and its deliver instant. flowSum adds the in-flight count at every
	// start: the flow-weighted concurrency the fluid model's O(F) rate
	// recompute pays for.
	inflight, peakInflight, flowStarts, flowSum int64
}

func (s *streamStats) add(e trace.Event) {
	s.events.Add(1)
	switch e.Kind {
	case trace.KRunBegin:
		s.inflight = 0
	case trace.KProcPark:
		s.parks++
	case trace.KInstant:
		switch {
		case e.Cat == trace.CatLink:
			s.links++
		case e.Cat == "fabric" && (e.Name == "put" || e.Name == "get"):
			s.inflight++
			s.flowStarts++
			s.flowSum += s.inflight
			if s.inflight > s.peakInflight {
				s.peakInflight = s.inflight
			}
		case e.Cat == "fabric" && e.Name == "deliver" && s.inflight > 0:
			s.inflight--
		}
	}
}
