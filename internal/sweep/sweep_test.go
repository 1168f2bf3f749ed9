package sweep

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/trace"
)

// setup installs sweep width w and default tracer tr for one test,
// restoring both afterwards.
func setup(t *testing.T, w int, tr trace.Tracer) {
	prevW, prevTr := Workers(), trace.Default()
	t.Cleanup(func() {
		SetWorkers(prevW)
		trace.SetDefault(prevTr)
	})
	SetWorkers(w)
	trace.SetDefault(tr)
}

// TestNoDefaultTracerNoBuffering pins the untraced path: with no default
// tracer every job gets a nil tracer at any width, so nothing is
// buffered.
func TestNoDefaultTracerNoBuffering(t *testing.T) {
	for _, w := range []int{1, 4} {
		setup(t, w, nil)
		var traced atomic.Int64
		err := Run(16, func(i int, tr trace.Tracer) error {
			if tr != nil {
				traced.Add(1)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if n := traced.Load(); n != 0 {
			t.Errorf("width %d: %d jobs got a tracer with no default installed", w, n)
		}
	}
}

// capSink is a discarding sink with configurable opt-in capabilities.
type capSink struct{ clock, util, edge bool }

func (capSink) Emit(trace.Event)     {}
func (s capSink) ObserveClock() bool { return s.clock }
func (s capSink) ObserveUtil() bool  { return s.util }
func (s capSink) ObserveEdge() bool  { return s.edge }

// TestJobTracersMirrorDefaultCapabilities checks that every parallel
// job's capture tracer answers the Wants* questions exactly as the real
// sink does, so the engines emit the same stream into it.
func TestJobTracersMirrorDefaultCapabilities(t *testing.T) {
	for _, sink := range []capSink{{}, {clock: true}, {util: true, edge: true}, {true, true, true}} {
		setup(t, 4, sink)
		err := Run(8, func(i int, tr trace.Tracer) error {
			if tr == nil {
				return fmt.Errorf("job %d: no capture tracer", i)
			}
			got := capSink{trace.WantsClock(tr), trace.WantsUtil(tr), trace.WantsEdge(tr)}
			if got != sink {
				return fmt.Errorf("job %d: tracer wants %+v, sink wants %+v", i, got, sink)
			}
			return nil
		})
		if err != nil {
			t.Error(err)
		}
	}
}

// TestReplayInIndexOrder checks that the default sink receives the jobs'
// streams in index order at width 1 and at width 4, even when job 0
// finishes last.
func TestReplayInIndexOrder(t *testing.T) {
	const n, perJob = 12, 3
	stream := func(w int) []trace.Event {
		buf := trace.NewBuffer()
		setup(t, w, buf)
		last := make(chan struct{})
		err := Run(n, func(i int, tr trace.Tracer) error {
			if w > 1 && i == 0 {
				<-last // hold job 0 until the final job has run
			}
			if i == n-1 {
				close(last)
			}
			// Sequential jobs get nil and trace into the ambient default,
			// as the engines they build would.
			if tr == nil {
				tr = trace.Default()
			}
			for k := 0; k < perJob; k++ {
				tr.Emit(trace.Event{Kind: trace.KInstant, Cat: "test", Name: "job", Arg: int64(i), Arg2: int64(k)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if trace.Default() != trace.Tracer(buf) {
			t.Fatalf("width %d: Run did not restore the default tracer", w)
		}
		return buf.Events()
	}
	serial := stream(1)
	if len(serial) != n*perJob {
		t.Fatalf("serial stream has %d events, want %d", len(serial), n*perJob)
	}
	for j, e := range serial {
		if e.Arg != int64(j/perJob) || e.Arg2 != int64(j%perJob) {
			t.Fatalf("serial event %d is job %d #%d, want job %d #%d", j, e.Arg, e.Arg2, j/perJob, j%perJob)
		}
	}
	if par := stream(4); !reflect.DeepEqual(par, serial) {
		t.Error("width-4 replay differs from the serial stream")
	}
}
