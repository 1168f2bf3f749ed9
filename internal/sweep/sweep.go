// Package sweep runs the independent points of an experiment sweep on a
// bounded worker pool. Every simulation in this repository is a
// self-contained deterministic engine, so sweep points can execute on
// parallel OS threads without perturbing each other's results; the only
// shared resource is the process-wide default tracer, which Run
// virtualizes so that the merged event stream (and hence the printed
// TraceDigest) is byte-identical at any worker count.
//
// Traced parallel sweeps deliver in index order from one delivery
// goroutine, the only one that ever calls the real sink, so the
// observers run beside the simulations instead of on a worker. The head
// job — the lowest-indexed one not yet delivered — hands its events
// over as raw slabs through a small ring, and waits only while every
// slab is undelivered. Every later job records into a private
// trace.Buffer, a compact event log of about 10 bytes an event, whose
// sealed chunks the deliverer replays once the job becomes head, while
// the job keeps running; the job then goes live on the ring. A worker
// starts job i only while i < delivered + width, one fewer while the
// head's buffered backlog drains, so at most width−1 jobs' streams plus
// the ring are ever undelivered, however long the sweep.
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
// each job traces into a stream tracer, and a delivery goroutine feeds
// the jobs' streams to the real sink in index order; Run returns once
// every stream has been delivered. Results must be written into
// index-addressed slots (no appends), so the rendered output is
// identical at any width.
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
	if saved != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q.deliver()
		}()
	}
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i, s, ok := q.start()
				if !ok {
					return
				}
				if s == nil {
					errs[i] = job(i, nil)
					continue
				}
				errs[i] = job(i, s)
				s.close()
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

const (
	// slabEvents is the size of one slab of the live ring.
	slabEvents = 2048
	// ringSlabs slabs circulate between the head job and the deliverer,
	// so the head runs at most ringEvents ahead of its delivery. Four
	// 2,048-event slabs (640 KiB) absorb the scheduling jitter of three
	// busy goroutines on two cores: two of 1,024 made the head wait
	// often enough to cost wall and CPU time on a traced sweep.
	ringSlabs  = 4
	ringEvents = ringSlabs * slabEvents
)

// slab is one batch of the head job's events on their way to the sink.
type slab struct {
	ev   [slabEvents]trace.Event
	n    int
	last bool // the job's final slab
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

	// The ring: the live job takes empty slabs from free and hands them
	// full to the deliverer, which hands them back. One job is live at a
	// time, so one ring serves the whole sweep.
	free, full chan *slab

	mu   sync.Mutex
	slot sync.Cond // signalled when the window may have moved or the head started
	next int       // lowest index not yet started
	// delivered counts the jobs whose whole stream has reached the sink;
	// job delivered is the head.
	delivered int
	// draining reports that the head started buffered and its backlog
	// is not yet replayed; the window is one job narrower meanwhile.
	draining bool
	streams  []*stream // started, undelivered jobs' tracers
}

func newQueue(n, width int, sink trace.Tracer) *queue {
	q := &queue{n: n, width: width, sink: sink}
	q.slot.L = &q.mu
	if sink != nil {
		q.clock, q.util, q.edge = trace.WantsClock(sink), trace.WantsUtil(sink), trace.WantsEdge(sink)
		q.streams = make([]*stream, n)
		q.free, q.full = make(chan *slab, ringSlabs), make(chan *slab, ringSlabs)
		for k := 0; k < ringSlabs; k++ {
			q.free <- new(slab)
		}
	}
	return q
}

// start claims the next job, waiting while it lies beyond the window,
// and returns its tracer (nil when untraced). ok is false once every job
// has been claimed. The head starts live; any other job starts buffered.
func (q *queue) start() (i int, s *stream, ok bool) {
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
	s = &stream{q: q}
	if i == q.delivered {
		q.slot.Broadcast() // the deliverer waits for it
	} else {
		s.log = trace.NewBuffer()
		s.buffering = true
		s.handoff = make(chan bool, 1)
	}
	q.streams[i] = s
	return i, s, true
}

// limit is the first index the window does not admit: width jobs from
// the head, or width−1 while the head's backlog drains, so that at most
// width−1 jobs' streams are buffered at once.
func (q *queue) limit() int {
	if q.draining {
		return q.delivered + q.width - 1
	}
	return q.delivered + q.width
}

// deliver feeds every job's stream to the sink in index order. For a
// job that started buffered it replays the sealed chunks, asks the job
// to stop recording, and replays the rest; a job still running then
// goes on live, as does a job that started as head, and its slabs
// follow until the last.
func (q *queue) deliver() {
	for d := 0; d < q.n; d++ {
		q.mu.Lock()
		for q.streams[d] == nil {
			q.slot.Wait()
		}
		s := q.streams[d]
		q.mu.Unlock()

		live := s.log == nil
		if !live {
			s.log.ReplaySealed(q.sink)
			s.promoted.Store(true)
			live = <-s.handoff
			s.log.ReplaySealed(q.sink)
			q.mu.Lock()
			q.draining = false
			q.slot.Broadcast()
			q.mu.Unlock()
		}
		for live {
			sl := <-q.full
			for k := range sl.ev[:sl.n] {
				q.sink.Emit(sl.ev[k])
			}
			live = !sl.last
			sl.n, sl.last = 0, false
			q.free <- sl
		}

		q.mu.Lock()
		q.streams[d] = nil
		q.delivered = d + 1
		q.draining = d+1 < q.n && q.streams[d+1] != nil
		q.slot.Broadcast()
		q.mu.Unlock()
	}
}

// stream is one parallel job's tracer. A job that starts buffered
// records into log until the deliverer, having replayed what the job
// sealed so far, promotes it; its next Emit (or its end) seals the log
// and hands it off, and from there on it is live: every event goes into
// the ring's current slab.
type stream struct {
	q *queue

	log       *trace.Buffer // nil for a job that started live
	buffering bool          // still recording into log
	promoted  atomic.Bool   // set by the deliverer: stop recording
	handoff   chan bool     // once the job stops recording: whether it goes on live

	cur *slab // the slab being filled, while live
}

func (s *stream) Emit(e trace.Event) {
	if s.buffering {
		if !s.promoted.Load() {
			s.log.Emit(e)
			return
		}
		s.handOff(true)
	}
	if s.cur == nil {
		s.cur = <-s.q.free
	}
	s.cur.ev[s.cur.n] = e
	s.cur.n++
	if s.cur.n == slabEvents {
		s.q.full <- s.cur
		s.cur = nil
	}
}

// handOff stops recording: it seals the log, so that the deliverer can
// replay all of it, and says whether the job goes on live.
func (s *stream) handOff(live bool) {
	s.log.Seal()
	s.buffering = false
	s.handoff <- live
}

// close ends the job's stream: a buffering job hands its log off, a
// live one sends its last slab.
func (s *stream) close() {
	if s.buffering {
		s.handOff(false)
		return
	}
	if s.cur == nil {
		s.cur = <-s.q.free
	}
	s.cur.last = true
	s.q.full <- s.cur
	s.cur = nil
}

// The opt-ins answer from the queue's snapshot of the sink's, so the
// engines emit exactly the stream they would emit into the sink itself.
func (s *stream) ObserveClock() bool { return s.q.clock }
func (s *stream) ObserveUtil() bool  { return s.q.util }
func (s *stream) ObserveEdge() bool  { return s.q.edge }
