package ft

import (
	"repro/internal/subthread"
	"repro/internal/topo"
	"repro/internal/upc"
)

// upcWorker is one UPC thread's per-run state: the slab plus the
// one-sided exchange.
type upcWorker struct {
	slab
	t    *upc.Thread
	recv *upc.Shared[complex128] // verify mode: every thread's in buffer
	// handles holds the exchange's puts in flight; its backing array is
	// reused by every exchange, since WaitAll consumes each handle.
	handles []*upc.Handle
}

// runUPC executes the UPC and hybrid variants.
func runUPC(cfg Config) (Result, error) {
	backend := upc.Processes
	if cfg.Variant == UPCPthreads {
		backend = upc.Pthreads
	}
	ucfg := upc.Config{
		Machine:        cfg.Machine,
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.PerNode,
		Backend:        backend,
		PSHM:           true,
		Binding:        topo.BindSocketRR,
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
	}
	r := newDriver(&cfg)
	var setupErr error
	_, err := upc.Run(ucfg, func(t *upc.Thread) {
		w, err := newUPCWorker(&cfg, t)
		if err != nil {
			if setupErr == nil {
				setupErr = err
			}
			return
		}
		r.run(&w.slab, w)
	})
	if err != nil {
		return Result{}, err
	}
	if setupErr != nil {
		return Result{}, setupErr
	}
	return r.result(), nil
}

func newUPCWorker(cfg *Config, t *upc.Thread) (*upcWorker, error) {
	w := &upcWorker{slab: newSlab(cfg, t.Runtime().Cluster, t.P, t.Place, t.ID, t.N), t: t}
	if cfg.Variant.Hybrid() {
		safety := subthread.Funneled
		if cfg.Impl == Overlap {
			safety = subthread.Multiple // sub-threads issue the puts
		}
		tm, err := subthread.NewTeam(t, subthread.Config{
			Kind:   cfg.Variant.subKind(),
			N:      cfg.SubThreads,
			Bound:  true,
			Safety: safety,
		})
		if err != nil {
			return nil, err
		}
		w.team = tm
	}
	if cfg.Verify {
		w.recv = upc.Alloc[complex128](t, w.P*w.P*w.B, 16, w.P*w.B)
		w.in = w.recv.Local(t)
	}
	return w, nil
}

func (w *upcWorker) barrier() { w.t.Barrier() }

// checksum reduces one complex sample per thread (NAS's per-iteration
// checksum).
func (w *upcWorker) checksum() { upc.AllReduceSum(w.t, float64(w.t.ID)) }

// exchange is the split-phase all-to-all: one put per destination, the
// own block last as a local copy.
func (w *upcWorker) exchange() {
	w.t.Barrier()
	w.handles = w.handles[:0]
	w.timed("comm-call", func() {
		for k := 1; k <= w.P; k++ {
			w.handles = append(w.handles, w.putBlock((w.t.ID+k)%w.P))
		}
	})
	w.timed("comm-wait", func() {
		w.t.WaitAll(w.handles)
		w.t.Barrier()
	})
}

// putBlock sends the stage block for dst into dst's recv partition.
func (w *upcWorker) putBlock(dst int) *upc.Handle {
	if w.cfg.Verify {
		return upc.PutAsyncT(w.t, w.recv, dst, w.t.ID*w.B, w.stage[dst*w.B:(dst+1)*w.B])
	}
	return w.t.PutBytesAsync(dst, int64(w.B)*16)
}

// forwardOverlap fuses the 2D FFTs, the staging and the exchange: each
// z-plane's slices are put to every destination as soon as the plane is
// transformed, overlapping communication with the remaining planes.
func (w *upcWorker) forwardOverlap() {
	cls := w.cls
	perPlane := cls.fft2DSeconds(w.cfg.Machine.FlopsPerCore)
	perPlaneTr := transposeSeconds(cls.NY * cls.NX)
	sliceElems := w.LY * cls.NX

	w.t.Barrier()
	w.handles = w.handles[:0]
	start := w.t.Now()
	endFFT := w.traceSpan("fft2d")

	body := w.planeFFT(false)
	planeWork := func(ctx *upc.Thread, zl int) {
		if body != nil {
			body(zl)
			w.stagePlane(zl)
		}
		// Initiate this plane's slices to every destination as soon as
		// the plane is transformed (non-blocking puts).
		for k := 1; k <= w.P; k++ {
			dst := (w.t.ID + k) % w.P
			var h *upc.Handle
			srcOff := dst*w.B + zl*sliceElems
			dstOff := w.t.ID*w.B + zl*sliceElems
			if w.cfg.Verify {
				h = upc.PutAsyncT(ctx, w.recv, dst, dstOff, w.stage[srcOff:srcOff+sliceElems])
			} else {
				h = ctx.PutBytesAsync(dst, int64(sliceElems)*16)
			}
			w.handles = append(w.handles, h)
		}
	}

	if w.team != nil {
		w.team.ParallelFor(w.LZ, func(s *subthread.Sub, zl int) {
			s.Compute(perPlane)   // the plane's 2D FFT
			s.Compute(perPlaneTr) // its local staging
			planeWork(s.UPC(), zl)
		})
	} else {
		for zl := 0; zl < w.LZ; zl++ {
			w.t.Compute(perPlane)
			w.t.Compute(perPlaneTr)
			c0 := w.t.Now()
			endCall := w.traceSpan("comm-call")
			planeWork(w.t, zl)
			w.phases["comm-call"] += w.t.Now() - c0
			endCall()
		}
	}
	w.phases["fft2d"] += w.t.Now() - start
	endFFT()

	w.timed("comm-wait", func() {
		w.t.WaitAll(w.handles)
		w.t.Barrier()
	})
}
