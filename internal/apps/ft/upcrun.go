package ft

import (
	"math"
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/sim"
	"repro/internal/subthread"
	"repro/internal/topo"
	"repro/internal/upc"
)

// upcWorker is one UPC thread's per-run state.
type upcWorker struct {
	cfg *Config
	cls Class
	t   *upc.Thread
	P   int // UPC threads
	LZ  int // z-planes per thread
	LY  int // y-rows per thread (transposed layout)
	B   int // exchange block: LZ*LY*NX elements

	team     *subthread.Team
	phases   map[string]sim.Duration // this thread's per-phase totals
	measured bool                    // inside the timed region (phase spans are emitted)

	// Verify-mode data (nil in model mode).
	a     []complex128 // z-slab: a[(zl*NY+y)*NX+x]
	d     []complex128 // y-slab: d[(yl*NZ+z)*NX+x]
	stage []complex128 // contiguous per-destination send blocks
	recv  *upc.Shared[complex128]
}

// runUPC executes the UPC and hybrid variants.
func runUPC(cfg Config) (Result, error) {
	cond, err := cfg.conduit()
	if err != nil {
		return Result{}, err
	}
	backend := upc.Processes
	if cfg.Variant == UPCPthreads {
		backend = upc.Pthreads
	}
	ucfg := upc.Config{
		Machine:        cfg.Machine,
		Conduit:        cond,
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.PerNode,
		Backend:        backend,
		PSHM:           !cfg.NoPSHM,
		Binding:        topo.BindSocketRR,
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
	}

	res := Result{Phases: map[string]sim.Duration{}}
	var start, stop sim.Time
	var setupErr error
	var maxErr float64
	verified := true

	_, err = upc.Run(ucfg, func(t *upc.Thread) {
		w, err := newUPCWorker(&cfg, t)
		if err != nil {
			if setupErr == nil {
				setupErr = err
			}
			return
		}
		if cfg.Verify {
			w.initData()
			t.Barrier()
			w.forward()
			w.inverse()
			if e := w.compare(); e > maxErr {
				maxErr = e
			}
			if maxErr > 1e-9 {
				verified = false
			}
			mergePhases(&res, w.phases)
			return
		}
		// Model mode: one untimed setup transform, then the timed loop.
		w.forward()
		t.Barrier()
		w.phases = map[string]sim.Duration{} // discard setup-phase charges
		w.measured = true
		if t.ID == 0 {
			start = t.Now()
		}
		for iter := 0; iter < w.cls.Iters; iter++ {
			w.evolve()
			w.forward()
			w.checksum()
		}
		t.Barrier()
		if t.ID == 0 {
			stop = t.Now()
		}
		mergePhases(&res, w.phases)
	})
	if err != nil {
		return Result{}, err
	}
	if setupErr != nil {
		return Result{}, setupErr
	}
	if cfg.Verify {
		res.Verified = verified
		res.MaxErr = maxErr
		return res, nil
	}
	res.Elapsed = stop - start
	res.PerIter = res.Elapsed / sim.Duration(cfg.Class.Iters)
	res.Comm = res.Phases["comm-call"] + res.Phases["comm-wait"]
	return res, nil
}

func newUPCWorker(cfg *Config, t *upc.Thread) (*upcWorker, error) {
	cls := cfg.Class
	w := &upcWorker{
		cfg:    cfg,
		cls:    cls,
		t:      t,
		P:      t.N,
		LZ:     cls.NZ / t.N,
		LY:     cls.NY / t.N,
		phases: map[string]sim.Duration{},
		// Verify mode times everything; model mode opens the measured
		// region after the untimed setup transform.
		measured: cfg.Verify,
	}
	w.B = w.LZ * w.LY * cls.NX
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
		w.a = make([]complex128, w.LZ*cls.NY*cls.NX)
		w.d = make([]complex128, w.LY*cls.NZ*cls.NX)
		w.stage = make([]complex128, w.P*w.B)
		w.recv = upc.Alloc[complex128](t, w.P*w.P*w.B, 16, w.P*w.B)
	}
	return w, nil
}

// initValue is the deterministic initial field, so every thread can
// recompute any element for the round-trip comparison.
func (w *upcWorker) initValue(z, y, x int) complex128 {
	s := float64(z*7+y*13+x*29) * 0.001
	return complex(math.Sin(s), math.Cos(1.3*s))
}

func (w *upcWorker) initData() {
	cls := w.cls
	for zl := 0; zl < w.LZ; zl++ {
		z := w.t.ID*w.LZ + zl
		for y := 0; y < cls.NY; y++ {
			for x := 0; x < cls.NX; x++ {
				w.a[(zl*cls.NY+y)*cls.NX+x] = w.initValue(z, y, x)
			}
		}
	}
}

// compare reports the max error of the round trip against the initial
// field.
func (w *upcWorker) compare() float64 {
	cls := w.cls
	worst := 0.0
	for zl := 0; zl < w.LZ; zl++ {
		z := w.t.ID*w.LZ + zl
		for y := 0; y < cls.NY; y++ {
			for x := 0; x < cls.NX; x++ {
				e := cmplx.Abs(w.a[(zl*cls.NY+y)*cls.NX+x] - w.initValue(z, y, x))
				if e > worst {
					worst = e
				}
			}
		}
	}
	return worst
}

// compute dispatches n work items across the team (or runs them inline),
// charging each item's cost; body may be nil in model mode.
func (w *upcWorker) compute(n int, perItem float64, body func(i int)) {
	if w.team != nil {
		w.team.ParallelFor(n, func(s *subthread.Sub, i int) {
			if body != nil {
				body(i)
			}
			s.Compute(perItem)
		})
		return
	}
	if body != nil {
		for i := 0; i < n; i++ {
			body(i)
		}
	}
	w.t.Compute(float64(n) * perItem)
}

// timed runs fn as one interval of the named phase, adding its duration
// to the thread's phase total and tracing it as an "ft" span inside the
// measured region, so each proc's summed spans equal its phase totals.
func (w *upcWorker) timed(phase string, fn func()) {
	end := w.traceSpan(phase)
	t0 := w.t.Now()
	fn()
	w.phases[phase] += w.t.Now() - t0
	end()
}

// noopSpan is the shared closer of phases outside the measured region.
var noopSpan = func() {}

// traceSpan opens an "ft" phase span on this thread's track, gated to the
// measured region (so trace aggregates match the reported Phases).
func (w *upcWorker) traceSpan(phase string) func() {
	if !w.measured {
		return noopSpan
	}
	return w.t.P.TraceSpan("ft", phase)
}

// evolve multiplies the slab by the time-evolution factors.
func (w *upcWorker) evolve() {
	w.timed("evolve", func() {
		m := w.cfg.Machine
		n := w.LZ * w.cls.NY * w.cls.NX
		chunks := 1
		if w.team != nil {
			chunks = w.team.Size()
		}
		w.compute(chunks, evolveSeconds(n/chunks, m.FlopsPerCore), nil)
	})
}

// checksum reduces one complex sample per thread (NAS's per-iteration
// checksum).
func (w *upcWorker) checksum() {
	w.timed("checksum", func() {
		upc.AllReduceSum(w.t, float64(w.t.ID))
	})
}

// forward runs one full forward 3D transform: 2D FFTs + exchange
// (split-phase or overlapped), re-transpose, 1D FFTs.
func (w *upcWorker) forward() {
	if w.cfg.Impl == Overlap {
		w.forwardOverlap()
	} else {
		w.forwardSplit()
	}
	w.retranspose()
	w.fft1d(false)
}

func (w *upcWorker) forwardSplit() {
	cls := w.cls
	m := w.cfg.Machine
	perPlane := cls.fft2DSeconds(m.FlopsPerCore)

	w.timed("fft2d", func() {
		w.compute(w.LZ, perPlane, w.planeFFT(false))
	})
	w.timed("transpose", func() {
		n := w.LZ * cls.NY * cls.NX
		chunks := 1
		if w.team != nil {
			chunks = w.team.Size()
		}
		w.compute(chunks, transposeSeconds(n/chunks), nil)
		if w.cfg.Verify {
			w.stageForward()
		}
	})
	w.t.Barrier()
	var handles []*upc.Handle
	w.timed("comm-call", func() {
		for k := 1; k < w.P; k++ {
			dst := (w.t.ID + k) % w.P
			handles = append(handles, w.putBlock(dst, w.t.ID*w.B, dst*w.B, w.B))
		}
		// Own block: a local copy.
		handles = append(handles, w.putBlock(w.t.ID, w.t.ID*w.B, w.t.ID*w.B, w.B))
	})
	w.timed("comm-wait", func() {
		w.t.WaitAll(handles)
		w.t.Barrier()
	})
}

// planeFFT returns the verify-mode body computing plane zl's 2D FFT, or
// nil in model mode.
func (w *upcWorker) planeFFT(inv bool) func(zl int) {
	if !w.cfg.Verify {
		return nil
	}
	cls := w.cls
	return func(zl int) {
		plane := w.a[zl*cls.NY*cls.NX : (zl+1)*cls.NY*cls.NX]
		fft.Transform2D(plane, cls.NY, cls.NX, inv)
	}
}

// stageForward packs the send blocks from the z-slab (verify mode).
func (w *upcWorker) stageForward() {
	cls := w.cls
	for dst := 0; dst < w.P; dst++ {
		for zl := 0; zl < w.LZ; zl++ {
			for yl := 0; yl < w.LY; yl++ {
				y := dst*w.LY + yl
				copy(w.stage[dst*w.B+(zl*w.LY+yl)*cls.NX:dst*w.B+(zl*w.LY+yl+1)*cls.NX],
					w.a[(zl*cls.NY+y)*cls.NX:(zl*cls.NY+y+1)*cls.NX])
			}
		}
	}
}

// putBlock sends nElems complex values from the local stage offset
// srcOff into dst's recv partition at dstOff, honoring the ManualCast
// study knob.
func (w *upcWorker) putBlock(dst, dstOff, srcOff, nElems int) *upc.Handle {
	if w.cfg.Verify {
		return upc.PutAsyncT(w.t, w.recv, dst, dstOff, w.stage[srcOff:srcOff+nElems])
	}
	bytes := int64(nElems) * 16
	if w.cfg.ManualCast && w.t.Castable(dst) && dst != w.t.ID {
		// The manual optimization: cast the destination pointer and issue
		// a plain memcpy instead of upc_memput.
		rt := w.t.Runtime()
		op, err := rt.Cluster.MemCopyAsync(w.t.P, w.t.Place, rt.PlaceOf(dst), bytes,
			60*sim.Nanosecond, nil)
		if err != nil {
			panic(err) // unreachable: Castable implies same node
		}
		return upc.HandleFor(op)
	}
	return w.t.PutBytesAsync(dst, bytes)
}

func (w *upcWorker) forwardOverlap() {
	cls := w.cls
	m := w.cfg.Machine
	perPlane := cls.fft2DSeconds(m.FlopsPerCore)
	perPlaneTr := transposeSeconds(cls.NY * cls.NX)
	sliceElems := w.LY * cls.NX

	w.t.Barrier()
	var handles []*upc.Handle
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
			handles = append(handles, h)
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
		w.t.WaitAll(handles)
		w.t.Barrier()
	})
}

// stagePlane packs one z-plane's per-destination slices (verify mode).
func (w *upcWorker) stagePlane(zl int) {
	cls := w.cls
	for dst := 0; dst < w.P; dst++ {
		for yl := 0; yl < w.LY; yl++ {
			y := dst*w.LY + yl
			copy(w.stage[dst*w.B+(zl*w.LY+yl)*cls.NX:dst*w.B+(zl*w.LY+yl+1)*cls.NX],
				w.a[(zl*cls.NY+y)*cls.NX:(zl*cls.NY+y+1)*cls.NX])
		}
	}
}

// retranspose unpacks the received blocks into the y-slab layout.
func (w *upcWorker) retranspose() {
	cls := w.cls
	w.timed("transpose", func() {
		n := w.LY * cls.NZ * cls.NX
		chunks := 1
		if w.team != nil {
			chunks = w.team.Size()
		}
		w.compute(chunks, transposeSeconds(n/chunks), nil)
		if w.cfg.Verify {
			local := w.recv.Local(w.t)
			for src := 0; src < w.P; src++ {
				for zl := 0; zl < w.LZ; zl++ {
					z := src*w.LZ + zl
					for yl := 0; yl < w.LY; yl++ {
						copy(w.d[(yl*cls.NZ+z)*cls.NX:(yl*cls.NZ+z+1)*cls.NX],
							local[src*w.B+(zl*w.LY+yl)*cls.NX:src*w.B+(zl*w.LY+yl+1)*cls.NX])
					}
				}
			}
		}
	})
}

// fft1d transforms along z for every (y, x) column of the y-slab.
func (w *upcWorker) fft1d(inv bool) {
	cls := w.cls
	m := w.cfg.Machine
	perRow := cls.fft1DSeconds(cls.NX, m.FlopsPerCore)
	var body func(yl int)
	if w.cfg.Verify {
		scratch := make([]complex128, cls.NZ)
		body = func(yl int) {
			for x := 0; x < cls.NX; x++ {
				fft.Strided(w.d, yl*cls.NZ*cls.NX+x, cls.NX, cls.NZ, inv, scratch)
			}
		}
	}
	w.timed("fft1d", func() {
		w.compute(w.LY, perRow, body)
	})
}

// inverse undoes forward (verify mode): inverse z FFTs, reverse exchange,
// inverse 2D FFTs.
func (w *upcWorker) inverse() {
	cls := w.cls
	w.fft1d(true)
	// Pack blocks by destination z-range from the y-slab.
	for dst := 0; dst < w.P; dst++ {
		for zl := 0; zl < w.LZ; zl++ {
			z := dst*w.LZ + zl
			for yl := 0; yl < w.LY; yl++ {
				copy(w.stage[dst*w.B+(zl*w.LY+yl)*cls.NX:dst*w.B+(zl*w.LY+yl+1)*cls.NX],
					w.d[(yl*cls.NZ+z)*cls.NX:(yl*cls.NZ+z+1)*cls.NX])
			}
		}
	}
	w.t.Barrier()
	var handles []*upc.Handle
	for k := 1; k <= w.P; k++ {
		dst := (w.t.ID + k) % w.P
		handles = append(handles, w.putBlock(dst, w.t.ID*w.B, dst*w.B, w.B))
	}
	w.t.WaitAll(handles)
	w.t.Barrier()
	// Scatter into the z-slab.
	local := w.recv.Local(w.t)
	for src := 0; src < w.P; src++ {
		for zl := 0; zl < w.LZ; zl++ {
			for yl := 0; yl < w.LY; yl++ {
				y := src*w.LY + yl
				copy(w.a[(zl*cls.NY+y)*cls.NX:(zl*cls.NY+y+1)*cls.NX],
					local[src*w.B+(zl*w.LY+yl)*cls.NX:src*w.B+(zl*w.LY+yl+1)*cls.NX])
			}
		}
	}
	// Inverse 2D FFT per plane.
	w.compute(w.LZ, cls.fft2DSeconds(w.cfg.Machine.FlopsPerCore), w.planeFFT(true))
}
