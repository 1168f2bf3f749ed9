// Package sweep runs the independent points of an experiment sweep on a
// bounded worker pool. Every simulation in this repository is a
// self-contained deterministic engine, so sweep points can execute on
// parallel OS threads without perturbing each other's results; the only
// shared resource is the process-wide default tracer, which Run
// virtualizes so that the merged event stream (and hence the printed
// TraceDigest) is byte-identical at any worker count.
//
// Traced parallel sweeps stream in index order. The head job — the
// lowest-indexed one not yet finished — emits straight into the real
// sink; every later job records into a private trace.Buffer, a compact
// event log of about 10 bytes an event, that is replayed the moment all
// earlier jobs have flushed. Workers may run at most one window of jobs
// (as many as there are workers) past the head, so at most width−1
// jobs' streams are ever buffered, however long the sweep.
//
// Contract for jobs: job(i, tr) must build and run the i'th sweep point,
// installing tr in every engine it creates (via the app Config's Tracer
// field). tr is nil when the ambient default tracer already reaches
// those engines — i.e. in sequential mode — so jobs must pass it through
// unconditionally and never read trace.Default themselves. Jobs must
// not call Run recursively: a nested parallel sweep would detach its
// engines from the outer job's stream tracer.
package sweep

import (
	"sync"
	"sync/atomic"

	"repro/internal/trace"
)

var (
	mu      sync.Mutex
	workers = 1
)

// SetWorkers sets the worker-pool width used by subsequent Run calls
// (minimum 1; 1 means fully sequential). The cmd binaries wire this to
// the shared -parallel flag.
func SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	mu.Lock()
	workers = n
	mu.Unlock()
}

// Workers reports the current worker-pool width.
func Workers() int {
	mu.Lock()
	defer mu.Unlock()
	return workers
}

// Run executes jobs 0..n-1 and returns the lowest-indexed error, if any.
// With one worker the jobs run in index order on the calling goroutine.
// With more, they are distributed over a pool of goroutines and the
// default tracer is detached for the duration. If one was installed,
// each job traces into a stream tracer that delivers its events to the
// real sink in index order — live while the job is the head, otherwise
// after every earlier job has flushed — and no job starts more than the
// pool width past the head. Results must be written into index-addressed
// slots (no appends), so the rendered output is identical at any width.
func Run(n int, job func(i int, tr trace.Tracer) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i, nil); err != nil {
				return err
			}
		}
		return nil
	}

	// Detach the default tracer: engines created by concurrent jobs must
	// not interleave events into the shared sink. Restored below, once
	// every job's stream has been delivered.
	saved := trace.Default()
	trace.SetDefault(nil)

	q := newQueue(n, w, saved)
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i, tr, ok := q.start()
				if !ok {
					return
				}
				errs[i] = job(i, tr)
				q.finish(i)
			}
		}()
	}
	wg.Wait()
	trace.SetDefault(saved)

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// queue hands out job indices and sequences the jobs' streams into the
// sink. With a nil sink it is a plain shared counter: untraced jobs have
// no order to keep, so no window holds them back.
type queue struct {
	n, width int
	sink     trace.Tracer
	// The sink's opt-ins, snapshotted once so that no job tracer queries
	// the live sink from a worker goroutine.
	clock, util, edge bool

	mu   sync.Mutex
	slot sync.Cond // signalled when the window may have moved
	next int       // lowest index not yet started
	head int       // lowest index not yet finished
	// headBuffered reports that the head was promoted while still
	// holding a buffer; the window is one job narrower until it flushes.
	headBuffered bool
	done         []bool
	streams      []*stream // started, unflushed jobs' tracers
}

func newQueue(n, width int, sink trace.Tracer) *queue {
	q := &queue{n: n, width: width, sink: sink}
	q.slot.L = &q.mu
	if sink != nil {
		q.clock, q.util, q.edge = trace.WantsClock(sink), trace.WantsUtil(sink), trace.WantsEdge(sink)
		q.done = make([]bool, n)
		q.streams = make([]*stream, n)
	}
	return q
}

// start claims the next job, waiting while it lies beyond the window,
// and returns its tracer (nil when untraced). ok is false once every job
// has been claimed.
func (q *queue) start() (i int, tr trace.Tracer, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.sink != nil && q.next < q.n && q.next >= q.limit() {
		q.slot.Wait()
	}
	if q.next >= q.n {
		return 0, nil, false
	}
	i = q.next
	q.next++
	if q.sink == nil {
		return i, nil, true
	}
	s := &stream{q: q}
	if i != q.head {
		s.buf = trace.NewBuffer()
	}
	q.streams[i] = s
	return i, s, true
}

// limit is the first index the window does not admit: width jobs from
// the head, or width−1 while the head still holds a buffer, so that at
// most width−1 jobs' streams are buffered at once.
func (q *queue) limit() int {
	if q.headBuffered {
		return q.head + q.width - 1
	}
	return q.head + q.width
}

// finish records that job i returned. If i was the head, it flushes
// every finished job that follows in index order, frees their buffers
// and promotes the next unfinished job to head. The sink is only ever
// written by the head's goroutine or, here, under q.mu by the goroutine
// that just retired the head, so deliveries never overlap.
func (q *queue) finish(i int) {
	if q.sink == nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.done[i] = true
	if i != q.head {
		return
	}
	for q.head < q.n && q.done[q.head] {
		q.streams[q.head].flush()
		q.streams[q.head] = nil
		q.head++
	}
	q.headBuffered = false
	if q.head < q.n {
		if s := q.streams[q.head]; s != nil {
			q.headBuffered = true
			s.promoted.Store(true)
		}
	}
	q.slot.Broadcast()
}

// stream is one parallel job's tracer. It records into buf, a compact
// log whose chunks go back to a shared pool as they are replayed, until
// the job is promoted to head; its next Emit then replays buf into the
// sink and from there on every event goes straight through.
type stream struct {
	q        *queue
	buf      *trace.Buffer // nil once live
	promoted atomic.Bool
}

func (s *stream) Emit(e trace.Event) {
	if s.buf != nil {
		if !s.promoted.Load() {
			s.buf.Emit(e)
			return
		}
		s.flush()
		s.q.mu.Lock()
		s.q.headBuffered = false
		s.q.slot.Broadcast()
		s.q.mu.Unlock()
	}
	s.q.sink.Emit(e)
}

// flush replays and frees the buffer, if any.
func (s *stream) flush() {
	if s.buf != nil {
		s.buf.ReplayInto(s.q.sink)
		s.buf = nil
	}
}

// The opt-ins answer from the queue's snapshot of the sink's, so the
// engines emit exactly the stream they would emit into the sink itself.
func (s *stream) ObserveClock() bool { return s.q.clock }
func (s *stream) ObserveUtil() bool  { return s.q.util }
func (s *stream) ObserveEdge() bool  { return s.q.edge }
