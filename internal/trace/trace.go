// Package trace is the structured event-tracing layer of the simulation
// substrate. The engine and the model layers above it (fabric, upc,
// subthread, the apps) emit Events — proc lifecycle, virtual-clock
// advances, resource spans, messages, counters — into a Tracer sink.
// Three sinks are provided: Buffer (an in-memory recording for ordered
// replay), ChromeWriter (Chrome trace-event JSON, loadable in Perfetto
// with virtual time as the timeline and procs as tracks), and Digest (an
// order-sensitive hash of the event stream — the run's fingerprint,
// identical across same-seed runs by the engine's determinism
// guarantee). Aggregation — counters, span profiles, the communication
// matrix — is internal/metrics' job; it consumes this stream.
//
// The package sits below internal/sim and imports nothing from the
// repository, so every layer can depend on it. Times are raw virtual
// nanoseconds (sim.Time is an int64 of nanoseconds).
package trace

// Kind classifies a trace event.
type Kind uint8

const (
	// KRunBegin marks the start of one engine's event stream. Sinks that
	// span several simulations (a sweep traced into one file) use it as a
	// run boundary.
	KRunBegin Kind = iota
	// KClock records a virtual-clock advance; Arg is the new time.
	KClock
	// KProcSpawn records process creation; Name is the process name.
	KProcSpawn
	// KProcPark records a process suspending; Aux is the park reason.
	KProcPark
	// KProcUnpark records a parked process resuming.
	KProcUnpark
	// KProcExit records process termination.
	KProcExit
	// KSpanBegin opens a named interval on the process's track (a barrier,
	// a lock acquisition, a benchmark phase). Spans nest per process.
	KSpanBegin
	// KSpanEnd closes the innermost open span on the process's track.
	KSpanEnd
	// KInstant records a point event (a message injection, a steal).
	KInstant
	// KCounter adds Arg to the named counter.
	KCounter
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KRunBegin:
		return "run-begin"
	case KClock:
		return "clock"
	case KProcSpawn:
		return "spawn"
	case KProcPark:
		return "park"
	case KProcUnpark:
		return "unpark"
	case KProcExit:
		return "exit"
	case KSpanBegin:
		return "span-begin"
	case KSpanEnd:
		return "span-end"
	case KInstant:
		return "instant"
	case KCounter:
		return "counter"
	}
	return "?"
}

// EngineProc is the Proc value of events emitted from engine context
// (completion callbacks) rather than from a simulated process.
const EngineProc int32 = -1

// Event is one trace record.
type Event struct {
	// Time is the virtual time of the event in nanoseconds.
	Time int64
	// Kind classifies the record.
	Kind Kind
	// Proc is the emitting process id, or EngineProc for engine context.
	Proc int32
	// Cat groups events by layer: "sim", "fabric", "upc", "subthread", or
	// an application name.
	Cat string
	// Name is the event or span name within its category.
	Name string
	// Aux is a secondary label (park reason, conduit name, locality).
	Aux string
	// Arg is the primary payload (bytes, a count, a counter delta).
	Arg int64
	// Arg2 is a secondary payload (connection occupancy, a victim id).
	Arg2 int64
}

// Tracer consumes a stream of events. Implementations need no internal
// locking: the engine delivers events from at most one goroutine at a
// time (the coroutine handoff serializes emitters).
type Tracer interface {
	Emit(Event)
}

// ClockObserver is the opt-in capability for per-advance KClock events.
// The engine emits one KClock per virtual-clock move — by far the most
// frequent event in a run — so it asks the sink first and skips the
// emission entirely unless the sink implements this interface and
// returns true. None of the built-in sinks ask for clocks on their own
// (ChromeWriter ignores them; Digest hashes whatever arrives); a sink
// that wants them implements this interface.
type ClockObserver interface {
	ObserveClock() bool
}

// WantsClock reports whether t opted into KClock events.
func WantsClock(t Tracer) bool {
	if co, ok := t.(ClockObserver); ok {
		return co.ObserveClock()
	}
	return false
}

// UtilObserver is the opt-in capability for link-occupancy events: one
// KInstant in category CatLink per fabric-link active-count change. Like
// clocks these are high-frequency (every flow start and finish touches
// every link it crosses), so the fabric asks the sink first and skips the
// emission unless the installed tracer implements this interface and
// returns true. The metrics utilization collector is the one built-in
// sink that asks for them.
type UtilObserver interface {
	ObserveUtil() bool
}

// WantsUtil reports whether t opted into link-occupancy events.
func WantsUtil(t Tracer) bool {
	if uo, ok := t.(UtilObserver); ok {
		return uo.ObserveUtil()
	}
	return false
}

// EdgeObserver is the opt-in capability for completion-edge events: one
// KInstant in category CatEdge per happens-before edge the model layers
// establish (barrier/collective arrivals and releases, lock handoffs,
// fabric deliveries, fault retries, message matches). The
// causality analyzer is the one built-in sink that asks for them; the
// emitters skip the instants — and every argument computation feeding
// them — unless the installed tracer implements this interface and
// returns true, keeping the untraced hot path allocation-free.
type EdgeObserver interface {
	ObserveEdge() bool
}

// WantsEdge reports whether t opted into completion-edge events.
func WantsEdge(t Tracer) bool {
	if eo, ok := t.(EdgeObserver); ok {
		return eo.ObserveEdge()
	}
	return false
}

// multi fans events out to several sinks.
type multi []Tracer

func (m multi) Emit(e Event) {
	for _, t := range m {
		t.Emit(e)
	}
}

// ObserveClock reports whether any fanned-out sink wants KClock events.
func (m multi) ObserveClock() bool {
	for _, t := range m {
		if WantsClock(t) {
			return true
		}
	}
	return false
}

// ObserveUtil reports whether any fanned-out sink wants link-occupancy
// events.
func (m multi) ObserveUtil() bool {
	for _, t := range m {
		if WantsUtil(t) {
			return true
		}
	}
	return false
}

// ObserveEdge reports whether any fanned-out sink wants completion-edge
// events.
func (m multi) ObserveEdge() bool {
	for _, t := range m {
		if WantsEdge(t) {
			return true
		}
	}
	return false
}

// Multi returns a tracer that forwards every event to each sink in order.
// A sink that is itself a Multi contributes its sinks in its place, so
// chained Tee calls still deliver each event through one flat fan-out.
func Multi(sinks ...Tracer) Tracer {
	flat := make(multi, 0, len(sinks))
	for _, s := range sinks {
		switch s := s.(type) {
		case nil:
		case multi:
			flat = append(flat, s...)
		default:
			flat = append(flat, s)
		}
	}
	if len(flat) == 1 {
		return flat[0]
	}
	return flat
}

// Tee combines two possibly-nil tracers, returning nil if both are nil.
func Tee(a, b Tracer) Tracer {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return Multi(a, b)
}

// defaultTracer is the process-wide tracer that sim.New installs on every
// new engine. It exists so the cmd/upc-* binaries can trace whole
// experiment sweeps (many engines, created deep inside the apps) without
// threading a Tracer through every Config. It is read at engine creation
// only; set it before building simulations, not concurrently with them.
var defaultTracer Tracer

// SetDefault installs the tracer that new engines inherit (nil to clear).
func SetDefault(t Tracer) { defaultTracer = t }

// Default reports the tracer new engines inherit, or nil.
func Default() Tracer { return defaultTracer }
