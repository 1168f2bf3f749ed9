package trace

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeWriter buffers the event stream and exports it as Chrome
// trace-event JSON (the format chrome://tracing and Perfetto load):
// virtual time is the timeline, each engine run becomes one process
// group (pid), and each simulated proc becomes a named thread track
// (tid). Spans render as nested B/E slices, instants as markers, and
// counters as counter tracks.
type ChromeWriter struct {
	events []Event
}

// NewChromeWriter returns an empty writer.
func NewChromeWriter() *ChromeWriter { return &ChromeWriter{} }

// Emit buffers one event.
func (w *ChromeWriter) Emit(e Event) { w.events = append(w.events, e) }

// engineTid is the tid used for engine-context events (Proc < 0); it is
// far above any real proc id so the track sorts last.
const engineTid = 999999

// chromeEvent is one record of the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func tid(proc int32) int {
	if proc < 0 {
		return engineTid
	}
	return int(proc)
}

// us converts virtual nanoseconds to the format's microsecond timestamps.
func us(ns int64) float64 { return float64(ns) / 1e3 }

// Export writes the buffered events as a single JSON document. Open
// spans (daemon procs parked at simulation end) are closed at each run's
// final timestamp so every B has a matching E.
func (w *ChromeWriter) Export(out io.Writer) error {
	var ces []chromeEvent
	pid := 0
	started := false          // saw a non-boundary event in the current run
	var openStack map[int]int // tid -> open span depth
	var lastTs int64
	meta := func(pid, tid int, kind, name string) chromeEvent {
		return chromeEvent{Name: kind, Ph: "M", Pid: pid, Tid: tid,
			Args: map[string]any{"name": name}}
	}
	counters := map[string]int64{} // running totals per pid/name
	closeRun := func() {
		// Sorted by tid: map order would make the export nondeterministic
		// whenever several procs end the run with open spans (e.g. parked
		// daemon pool workers).
		tids := make([]int, 0, len(openStack))
		for t := range openStack {
			tids = append(tids, t)
		}
		sort.Ints(tids)
		for _, t := range tids {
			for i := 0; i < openStack[t]; i++ {
				ces = append(ces, chromeEvent{Name: "", Ph: "E", Ts: us(lastTs), Pid: pid, Tid: t})
			}
		}
		openStack = map[int]int{}
	}
	openStack = map[int]int{}
	ces = append(ces, meta(pid, engineTid, "thread_name", "engine"))
	for _, e := range w.events {
		if e.Kind == KRunBegin {
			if started {
				closeRun()
				pid++
				counters = map[string]int64{}
				ces = append(ces, meta(pid, engineTid, "thread_name", "engine"))
				started = false
			}
			continue
		}
		started = true
		lastTs = e.Time
		t := tid(e.Proc)
		switch e.Kind {
		case KClock:
			// The timeline itself; no rendered record.
		case KProcSpawn:
			ces = append(ces,
				meta(pid, t, "thread_name", e.Name),
				chromeEvent{Name: "spawn", Cat: e.Cat, Ph: "i", Ts: us(e.Time),
					Pid: pid, Tid: t, S: "t"})
		case KProcExit:
			ces = append(ces, chromeEvent{Name: "exit", Cat: e.Cat, Ph: "i",
				Ts: us(e.Time), Pid: pid, Tid: t, S: "t"})
		case KProcPark:
			openStack[t]++
			ces = append(ces, chromeEvent{Name: "parked", Cat: "sim", Ph: "B",
				Ts: us(e.Time), Pid: pid, Tid: t,
				Args: map[string]any{"reason": e.Aux}})
		case KProcUnpark:
			if openStack[t] > 0 {
				openStack[t]--
				ces = append(ces, chromeEvent{Name: "parked", Ph: "E",
					Ts: us(e.Time), Pid: pid, Tid: t})
			}
		case KSpanBegin:
			openStack[t]++
			ces = append(ces, chromeEvent{Name: e.Name, Cat: e.Cat, Ph: "B",
				Ts: us(e.Time), Pid: pid, Tid: t, Args: spanArgs(e)})
		case KSpanEnd:
			if openStack[t] > 0 {
				openStack[t]--
				ces = append(ces, chromeEvent{Name: e.Name, Ph: "E",
					Ts: us(e.Time), Pid: pid, Tid: t})
			}
		case KInstant:
			ces = append(ces, chromeEvent{Name: e.Name, Cat: e.Cat, Ph: "i",
				Ts: us(e.Time), Pid: pid, Tid: t, S: instantScope(e.Proc),
				Args: spanArgs(e)})
		case KCounter:
			counters[e.Name] += e.Arg
			ces = append(ces, chromeEvent{Name: e.Name, Cat: e.Cat, Ph: "C",
				Ts: us(e.Time), Pid: pid, Tid: 0,
				Args: map[string]any{"value": counters[e.Name]}})
		}
	}
	closeRun()
	enc := json.NewEncoder(out)
	return enc.Encode(chromeFile{TraceEvents: ces, DisplayTimeUnit: "ns"})
}

func instantScope(proc int32) string {
	if proc < 0 {
		return "p"
	}
	return "t"
}

func spanArgs(e Event) map[string]any {
	if e.Aux == "" && e.Arg == 0 && e.Arg2 == 0 {
		return nil
	}
	args := map[string]any{}
	if e.Aux != "" {
		args["aux"] = e.Aux
	}
	if e.Arg != 0 {
		args["arg"] = e.Arg
	}
	if e.Arg2 != 0 {
		args["arg2"] = e.Arg2
	}
	return args
}
