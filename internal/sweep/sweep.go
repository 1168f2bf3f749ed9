// Package sweep runs the independent points of an experiment sweep on a
// bounded worker pool. Every simulation in this repository is a
// self-contained deterministic engine, so sweep points can execute on
// parallel OS threads without perturbing each other's results; the only
// shared resource is the process-wide default tracer, which Run
// virtualizes so that the merged event stream (and hence the printed
// TraceDigest) is byte-identical at any worker count.
//
// Contract for jobs: job(i, tr) must build and run the i'th sweep point,
// installing tr in every engine it creates (via the app Config's Tracer
// field). tr is nil when the ambient default tracer already reaches
// those engines — i.e. in sequential mode — so jobs must pass it through
// unconditionally and never read trace.Default themselves. Jobs must
// not call Run recursively: a nested parallel sweep would detach its
// engines from the outer job's capture buffer.
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
// With more, they are distributed over a pool of goroutines; the default
// tracer is detached for the duration and each job traces into a private
// trace.Buffer instead, replayed into the real sink in index order after
// the last job finishes. Results must be written into index-addressed
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
	// not interleave events into the shared sink. Restored below, after
	// the deterministic replay.
	saved := trace.Default()
	trace.SetDefault(nil)

	tracers := make([]trace.Tracer, n)
	bufs := make([]*trace.Buffer, n)
	if saved != nil {
		for i := range bufs {
			bufs[i] = trace.NewBufferFor(saved)
			tracers[i] = bufs[i]
		}
	}

	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = job(i, tracers[i])
			}
		}()
	}
	wg.Wait()

	if saved != nil {
		// Release each buffer as it drains: on big sweeps the captured
		// streams dominate the sweep's memory footprint.
		for i, b := range bufs {
			b.ReplayInto(saved)
			bufs[i], tracers[i] = nil, nil
		}
	}
	trace.SetDefault(saved)

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
