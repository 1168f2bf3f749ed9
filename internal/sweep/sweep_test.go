package sweep

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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
// finishes after every other job the window admits alongside it.
func TestReplayInIndexOrder(t *testing.T) {
	const n, perJob = 12, 3
	stream := func(w int) []trace.Event {
		buf := trace.NewBuffer()
		setup(t, w, buf)
		// Hold job 0 until jobs 1..w-1 have finished: the most
		// out-of-order finish the window allows.
		var early sync.WaitGroup
		early.Add(w - 1)
		err := Run(n, func(i int, tr trace.Tracer) error {
			if 0 < i && i < w {
				defer early.Done()
			}
			if w > 1 && i == 0 {
				early.Wait()
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

// countSink counts delivered events; the count may be read from any
// goroutine. With lag set it sleeps that long every 1,024 events, so a
// job runs as far ahead of its delivery as the sweep lets it.
type countSink struct {
	n   atomic.Int64
	lag time.Duration
}

func (s *countSink) Emit(trace.Event) {
	if s.n.Add(1)%1024 == 0 && s.lag > 0 {
		time.Sleep(s.lag) //upcvet:wallclock -- host-side stall of a slow observer
	}
}

// TestHeadJobStreamsLive checks that the head job's events reach the
// sink while the job runs, never more than the ring's capacity behind,
// and that no other job's events reach it before the head's end.
func TestHeadJobStreamsLive(t *testing.T) {
	const w, perJob, headJob = 4, 5, 3*ringEvents + 17
	sink := &countSink{lag: 100 * time.Microsecond}
	setup(t, w, sink)
	var others sync.WaitGroup
	others.Add(w - 1)
	err := Run(w, func(i int, tr trace.Tracer) error {
		if i != 0 {
			for k := 0; k < perJob; k++ {
				tr.Emit(trace.Event{Kind: trace.KInstant, Arg: int64(i)})
			}
			others.Done()
			return nil
		}
		others.Wait()
		for k := 1; k <= headJob; k++ {
			tr.Emit(trace.Event{Kind: trace.KInstant, Arg: int64(i)})
			if got := sink.n.Load(); k-int(got) > ringEvents {
				return fmt.Errorf("job 0 emitted %d events, sink holds %d: more than the ring's %d undelivered", k, got, ringEvents)
			}
		}
		if got := sink.n.Load(); got > headJob {
			return fmt.Errorf("sink holds %d events while job 0 runs, more than its own %d", got, headJob)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	if got := sink.n.Load(); got != headJob+(w-1)*perJob {
		t.Errorf("sink holds %d events after Run, want %d", got, headJob+(w-1)*perJob)
	}
}

// pendingProbe wraps a job's tracer and tracks the high-water mark of
// events emitted by any job but not yet delivered to the sink.
type pendingProbe struct {
	inner         trace.Tracer
	emitted, peak *atomic.Int64
	delivered     *countSink
}

func (p pendingProbe) Emit(e trace.Event) {
	p.inner.Emit(e)
	pending := p.emitted.Add(1) - p.delivered.n.Load()
	for {
		peak := p.peak.Load()
		if pending <= peak || p.peak.CompareAndSwap(peak, pending) {
			return
		}
	}
}

// bufferedPerJob is a job length twice the ring's capacity, so that a
// job buffered beyond the window's bound shows in the high-water mark.
const bufferedPerJob = 2 * ringEvents

// TestWindowBoundsBuffering holds job 0 and checks that job w (the first
// outside the window) waits until job 0 has been delivered, and that no
// more than w-1 jobs' streams plus the ring are ever undelivered.
func TestWindowBoundsBuffering(t *testing.T) {
	const w, n, perJob = 4, 16, bufferedPerJob
	sink := &countSink{}
	setup(t, w, sink)
	var emitted, peak atomic.Int64
	var early sync.WaitGroup
	early.Add(w - 1)
	outside := make(chan struct{}) // closed when job w starts
	err := Run(n, func(i int, tr trace.Tracer) error {
		switch {
		case i == w:
			close(outside)
			if got := sink.n.Load(); got < perJob {
				return fmt.Errorf("job %d started with %d events delivered, before job 0's %d", w, got, perJob)
			}
		case i == 0:
			early.Wait()
			// Job w must not start while job 0 runs; give a pool without
			// a window the chance to start it before job 0 returns.
			select {
			case <-outside:
			case <-time.After(20 * time.Millisecond): //upcvet:wallclock -- host-side grace for a worker pool, not simulated time
			}
		}
		tr = pendingProbe{inner: tr, emitted: &emitted, peak: &peak, delivered: sink}
		for k := 0; k < perJob; k++ {
			tr.Emit(trace.Event{Kind: trace.KInstant, Arg: int64(i)})
		}
		if 0 < i && i < w {
			early.Done()
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	if got := sink.n.Load(); got != n*perJob {
		t.Errorf("sink holds %d events, want %d", got, n*perJob)
	}
	if p, bound := peak.Load(), int64((w-1)*perJob+ringEvents); p > bound {
		t.Errorf("undelivered high-water mark %d events, want at most %d (w-1 jobs plus the ring)", p, bound)
	}
}

// stallSink counts deliveries like countSink, but stalls at job 1's
// first event until job 2 starts, or for 20 ms, so that job 1's backlog
// is still undelivered while job 2 has the chance to start.
type stallSink struct {
	countSink
	two     <-chan struct{}
	stalled bool
}

func (s *stallSink) Emit(e trace.Event) {
	if e.Arg == 1 && !s.stalled {
		s.stalled = true
		select {
		case <-s.two:
		case <-time.After(20 * time.Millisecond): //upcvet:wallclock -- host-side grace for a worker pool, not simulated time
		}
	}
	s.countSink.Emit(e)
}

// TestPromotedBufferNarrowsWindow pins the bound across a handoff: a job
// that becomes head while its stream is still buffered counts against
// the window until its backlog is replayed, so the next job cannot
// buffer alongside.
func TestPromotedBufferNarrowsWindow(t *testing.T) {
	const w, n, perJob = 2, 3, bufferedPerJob
	one, zero, two := make(chan struct{}), make(chan struct{}), make(chan struct{})
	sink := &stallSink{two: two}
	setup(t, w, sink)
	var emitted, peak atomic.Int64
	err := Run(n, func(i int, tr trace.Tracer) error {
		tr = pendingProbe{inner: tr, emitted: &emitted, peak: &peak, delivered: &sink.countSink}
		for k := 0; k < perJob; k++ {
			tr.Emit(trace.Event{Kind: trace.KInstant, Arg: int64(i)})
		}
		switch i {
		case 0:
			<-one // job 1 has buffered its whole stream
			close(zero)
		case 1:
			// Job 1 becomes head once job 0 is delivered, with its
			// whole stream buffered; the sink stalls on its replay.
			close(one)
			<-zero
		case 2:
			close(two)
		}
		return nil
	})
	if err != nil {
		t.Error(err)
	}
	if p, bound := peak.Load(), int64((w-1)*perJob+ringEvents); p > bound {
		t.Errorf("undelivered high-water mark %d events, want at most %d (w-1 jobs plus the ring)", p, bound)
	}
}

// TestStreamStress runs many jobs of uneven length with random delays
// and checks the delivered stream equals the serial one; under -race it
// also exercises the handoff.
func TestStreamStress(t *testing.T) {
	const n = 64
	count := func(i int) int { return (i*37)%23 + 1 }
	stream := func(w int) []trace.Event {
		buf := trace.NewBuffer()
		setup(t, w, buf)
		delays := make([]time.Duration, n)
		rng := rand.New(rand.NewSource(1))
		for i := range delays {
			delays[i] = time.Duration(rng.Intn(500)) * time.Microsecond
		}
		err := Run(n, func(i int, tr trace.Tracer) error {
			if tr == nil {
				tr = trace.Default()
			}
			for k := 0; k < count(i); k++ {
				if k == count(i)/2 {
					time.Sleep(delays[i]) //upcvet:wallclock -- host-side jitter to shuffle worker finish order
				}
				tr.Emit(trace.Event{Kind: trace.KInstant, Arg: int64(i), Arg2: int64(k)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}
	serial := stream(1)
	if par := stream(8); !reflect.DeepEqual(par, serial) {
		t.Error("width-8 stream differs from the serial stream")
	}
}

// TestMultiChunkJobsMatchSerial runs jobs long enough to fill several of
// a trace.Buffer's pooled chunks (up to six of 64 KiB at about 9 bytes
// an event), so buffered jobs recycle chunks that earlier replays
// returned; the delivered stream must still equal the serial one at
// every width.
func TestMultiChunkJobsMatchSerial(t *testing.T) {
	const n = 16
	count := func(i int) int { return 10000*(i%4+1) + i }
	stream := func(w int) []trace.Event {
		buf := trace.NewBuffer()
		setup(t, w, buf)
		err := Run(n, func(i int, tr trace.Tracer) error {
			if tr == nil {
				tr = trace.Default()
			}
			for k := 0; k < count(i); k++ {
				if k == count(i)/2 && i%3 == 0 {
					time.Sleep(time.Millisecond) //upcvet:wallclock -- host-side jitter to shuffle worker finish order
				}
				tr.Emit(trace.Event{Time: int64(k), Kind: trace.KInstant, Name: "job", Arg: int64(i), Arg2: int64(k)})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Events()
	}
	serial := stream(1)
	want := 0
	for i := 0; i < n; i++ {
		want += count(i)
	}
	if len(serial) != want {
		t.Fatalf("serial stream has %d events, want %d", len(serial), want)
	}
	for _, w := range []int{2, 8} {
		if par := stream(w); !reflect.DeepEqual(par, serial) {
			t.Errorf("width-%d stream differs from the serial stream", w)
		}
	}
}

// slowSink records what it is sent and sleeps now and then, so the
// deliverer falls behind the jobs and the ring and the window fill.
type slowSink struct {
	buf *trace.Buffer
	n   int
}

func (s *slowSink) Emit(e trace.Event) {
	if s.n++; s.n%512 == 0 {
		time.Sleep(50 * time.Microsecond) //upcvet:wallclock -- host-side stall of a slow observer
	}
	s.buf.Emit(e)
}

// TestSlowSinkStreamMatchesSerial mixes jobs that emit nothing, jobs that
// fail and jobs that span many buffer chunks and ring slabs, behind a
// sink slower than the jobs: at every width the delivered stream must
// equal the serial one, and Run must return the lowest-indexed error.
func TestSlowSinkStreamMatchesSerial(t *testing.T) {
	const n = 20
	count := func(i int) int {
		switch {
		case i%5 == 2:
			return 0
		case i%6 == 1:
			return 20000 + i // several chunks and many slabs
		}
		return 200*i + 1
	}
	fails := func(i int) bool { return i%6 == 3 }
	body := func(i int, tr trace.Tracer) error {
		for k := 0; k < count(i); k++ {
			tr.Emit(trace.Event{Time: int64(k), Kind: trace.KInstant, Name: "job", Arg: int64(i), Arg2: int64(k)})
		}
		if fails(i) {
			return fmt.Errorf("job %d failed", i)
		}
		return nil
	}
	serial := trace.NewBuffer()
	for i := 0; i < n; i++ {
		_ = body(i, serial)
	}
	want := serial.Events()
	for _, w := range []int{2, 3, 8} {
		sink := &slowSink{buf: trace.NewBuffer()}
		setup(t, w, sink)
		err := Run(n, body)
		if err == nil || err.Error() != "job 3 failed" {
			t.Errorf("width %d: Run returned %v, want job 3's error", w, err)
		}
		if got := sink.buf.Events(); !reflect.DeepEqual(got, want) {
			t.Errorf("width %d: delivered %d events, differing from the serial %d", w, len(got), len(want))
		}
	}
}
