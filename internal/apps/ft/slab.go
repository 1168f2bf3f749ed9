package ft

import (
	"math"
	"math/cmplx"

	"repro/internal/fabric"
	"repro/internal/fft"
	"repro/internal/sim"
	"repro/internal/subthread"
	"repro/internal/topo"
)

// slab is one execution context's share of the 1D slab decomposition
// (Figure 4.3) and everything done with it that does not depend on the
// runtime: geometry, verify data, compute charges, staging, unpacking
// and phase timing. The UPC and MPI workers embed it and add only their
// exchange (see exchanger).
type slab struct {
	cfg   *Config
	cls   Class
	p     *sim.Proc
	place topo.Place
	cl    *fabric.Cluster
	rank  int
	P     int // execution contexts (UPC threads or MPI ranks)
	LZ    int // z-planes per context
	LY    int // y-rows per context (transposed layout)
	B     int // exchange block: LZ*LY*NX elements

	team     *subthread.Team         // hybrid sub-threads (nil otherwise)
	phases   map[string]sim.Duration // this context's per-phase totals
	measured bool                    // inside the measured region (phase spans are emitted)

	// Verify-mode data (nil in model mode).
	a     []complex128 // z-slab: a[(zl*NY+y)*NX+x]
	d     []complex128 // y-slab: d[(yl*NZ+z)*NX+x]
	stage []complex128 // contiguous per-destination send blocks
	in    []complex128 // received blocks, by source, laid out like stage
}

// exchanger is what a runtime adds to the slab code.
type exchanger interface {
	barrier()
	// exchange moves every stage block to its destination's in buffer
	// (split-phase), charging the comm-call and comm-wait phases.
	exchange()
	// checksum is NAS FT's per-iteration reduction.
	checksum()
}

// newSlab lays out rank's slab of a P-way decomposition running on
// process p at place. Verify mode allocates the data buffers except in,
// which the runtime provides, and measures every phase; model mode opens
// the measured region after the untimed setup transform.
func newSlab(cfg *Config, cl *fabric.Cluster, p *sim.Proc, place topo.Place, rank, P int) slab {
	cls := cfg.Class
	s := slab{
		cfg: cfg, cls: cls, p: p, place: place, cl: cl, rank: rank, P: P,
		LZ: cls.NZ / P, LY: cls.NY / P,
		phases:   map[string]sim.Duration{},
		measured: cfg.Verify,
	}
	s.B = s.LZ * s.LY * cls.NX
	if cfg.Verify {
		s.a = make([]complex128, s.LZ*cls.NY*cls.NX)
		s.d = make([]complex128, s.LY*cls.NZ*cls.NX)
		s.stage = make([]complex128, P*s.B)
	}
	return s
}

// driver runs one FT execution's contexts and accumulates its Result
// across them.
type driver struct {
	cfg         *Config
	res         Result
	start, stop sim.Time
}

func newDriver(cfg *Config) *driver {
	return &driver{cfg: cfg, res: Result{Phases: map[string]sim.Duration{}}}
}

// run runs one execution context: the verify round trip, or the untimed
// setup transform followed by the timed loop.
func (r *driver) run(s *slab, x exchanger) {
	if r.cfg.Verify {
		s.initData()
		x.barrier()
		s.forward(x)
		s.inverse(x)
		r.res.MaxErr = max(r.res.MaxErr, s.compare())
		r.merge(s.phases)
		return
	}
	s.forward(x)
	x.barrier()
	s.phases = map[string]sim.Duration{} // discard setup-phase charges
	s.measured = true
	if s.rank == 0 {
		r.start = s.p.Now()
	}
	for iter := 0; iter < s.cls.Iters; iter++ {
		s.evolve()
		s.forward(x)
		s.timed("checksum", x.checksum)
	}
	x.barrier()
	if s.rank == 0 {
		r.stop = s.p.Now()
	}
	r.merge(s.phases)
}

// merge folds one execution context's phase totals into the result as
// cross-context maxima (the slowest context bounds the phase).
func (r *driver) merge(phases map[string]sim.Duration) {
	for name, d := range phases {
		if d > r.res.Phases[name] {
			r.res.Phases[name] = d
		}
	}
}

// result completes the Result once every context has run.
func (r *driver) result() Result {
	res := r.res
	if r.cfg.Verify {
		res.Verified = res.MaxErr <= 1e-9
		return res
	}
	res.Elapsed = r.stop - r.start
	res.PerIter = res.Elapsed / sim.Duration(r.cfg.Class.Iters)
	res.Comm = res.Phases["comm-call"] + res.Phases["comm-wait"]
	return res
}

// initValue is the deterministic initial field, so every context can
// recompute any element for the round-trip comparison.
func initValue(z, y, x int) complex128 {
	s := float64(z*7+y*13+x*29) * 0.001
	return complex(math.Sin(s), math.Cos(1.3*s))
}

func (s *slab) initData() {
	cls := s.cls
	for zl := 0; zl < s.LZ; zl++ {
		for y := 0; y < cls.NY; y++ {
			for x := 0; x < cls.NX; x++ {
				s.a[(zl*cls.NY+y)*cls.NX+x] = initValue(s.rank*s.LZ+zl, y, x)
			}
		}
	}
}

// compare reports the max error of the round trip against the initial
// field.
func (s *slab) compare() float64 {
	cls := s.cls
	worst := 0.0
	for zl := 0; zl < s.LZ; zl++ {
		for y := 0; y < cls.NY; y++ {
			for x := 0; x < cls.NX; x++ {
				e := cmplx.Abs(s.a[(zl*cls.NY+y)*cls.NX+x] - initValue(s.rank*s.LZ+zl, y, x))
				worst = max(worst, e)
			}
		}
	}
	return worst
}

// timed runs fn as one interval of the named phase, adding its duration
// to the context's phase total and tracing it as an "ft" span inside the
// measured region, so each proc's summed spans equal its phase totals.
func (s *slab) timed(phase string, fn func()) {
	end := s.traceSpan(phase)
	t0 := s.p.Now()
	fn()
	s.phases[phase] += s.p.Now() - t0
	end()
}

// noopSpan is the shared closer of phases outside the measured region.
var noopSpan = func() {}

// traceSpan opens an "ft" phase span on this context's track, gated to
// the measured region (so trace aggregates match the reported Phases).
func (s *slab) traceSpan(phase string) func() {
	if !s.measured {
		return noopSpan
	}
	return s.p.TraceSpan("ft", phase)
}

// compute dispatches n work items across the team (or runs them inline),
// charging each item's cost; body may be nil in model mode.
func (s *slab) compute(n int, perItem float64, body func(i int)) {
	if s.team != nil {
		s.team.ParallelFor(n, func(sub *subthread.Sub, i int) {
			if body != nil {
				body(i)
			}
			sub.Compute(perItem)
		})
		return
	}
	if body != nil {
		for i := 0; i < n; i++ {
			body(i)
		}
	}
	s.cl.Compute(s.p, s.place, float64(n)*perItem)
}

// chunks reports how many equal pieces an element-wise kernel splits
// into: one per sub-thread.
func (s *slab) chunks() int {
	if s.team != nil {
		return s.team.Size()
	}
	return 1
}

// transpose charges the local rearrangement of n elements.
func (s *slab) transpose(n int) {
	c := s.chunks()
	s.compute(c, transposeSeconds(n/c), nil)
}

// evolve multiplies the slab by the time-evolution factors.
func (s *slab) evolve() {
	s.timed("evolve", func() {
		c := s.chunks()
		s.compute(c, evolveSeconds(s.LZ*s.cls.NY*s.cls.NX/c, s.cfg.Machine.FlopsPerCore), nil)
	})
}

// forward runs one full forward 3D transform: 2D FFTs, staging and the
// exchange (split-phase, or overlapped by the UPC runtime), unpacking
// into the y-slab, 1D FFTs.
func (s *slab) forward(x exchanger) {
	if s.cfg.Impl == Overlap {
		x.(*upcWorker).forwardOverlap() // validate admits overlap for UPC only
	} else {
		s.timed("fft2d", func() {
			s.compute(s.LZ, s.cls.fft2DSeconds(s.cfg.Machine.FlopsPerCore), s.planeFFT(false))
		})
		s.timed("transpose", func() {
			s.transpose(s.LZ * s.cls.NY * s.cls.NX)
			s.stageForward()
		})
		x.exchange()
	}
	s.timed("transpose", func() {
		s.transpose(s.LY * s.cls.NZ * s.cls.NX)
		s.unpackY()
	})
	s.fft1d(false)
}

// inverse undoes forward (verify mode): inverse z FFTs, the reverse
// exchange, inverse 2D FFTs.
func (s *slab) inverse(x exchanger) {
	s.fft1d(true)
	s.rows(0, s.LZ, func(blk, _, d int) { copy(s.stage[blk:blk+s.cls.NX], s.d[d:]) })
	x.exchange()
	s.rows(0, s.LZ, func(blk, a, _ int) { copy(s.a[a:a+s.cls.NX], s.in[blk:]) })
	s.timed("fft2d", func() {
		s.compute(s.LZ, s.cls.fft2DSeconds(s.cfg.Machine.FlopsPerCore), s.planeFFT(true))
	})
}

// planeFFT returns the verify-mode body computing plane zl's 2D FFT, or
// nil in model mode.
func (s *slab) planeFFT(inv bool) func(zl int) {
	if !s.cfg.Verify {
		return nil
	}
	cls := s.cls
	return func(zl int) {
		plane := s.a[zl*cls.NY*cls.NX : (zl+1)*cls.NY*cls.NX]
		fft.Transform2D(plane, cls.NY, cls.NX, inv)
	}
}

// fft1d transforms along z for every (y, x) column of the y-slab.
func (s *slab) fft1d(inv bool) {
	cls := s.cls
	var body func(yl int)
	if s.cfg.Verify {
		scratch := make([]complex128, cls.NZ)
		body = func(yl int) {
			for x := 0; x < cls.NX; x++ {
				fft.Strided(s.d, yl*cls.NZ*cls.NX+x, cls.NX, cls.NZ, inv, scratch)
			}
		}
	}
	s.timed("fft1d", func() {
		s.compute(s.LY, cls.fft1DSeconds(cls.NX, s.cfg.Machine.FlopsPerCore), body)
	})
}

// rows calls fn for every NX-element row of planes zlo..zhi-1 of the P
// exchange blocks, with the row's offsets in a block buffer (stage or
// in), in the z-slab a and in the y-slab d. Block p holds, plane by
// plane, the rows y = p*LY.. of the z-slab, which become the rows
// z = p*LZ.. of the y-slab.
func (s *slab) rows(zlo, zhi int, fn func(blk, a, d int)) {
	cls := s.cls
	for p := 0; p < s.P; p++ {
		for zl := zlo; zl < zhi; zl++ {
			for yl := 0; yl < s.LY; yl++ {
				fn(p*s.B+(zl*s.LY+yl)*cls.NX,
					(zl*cls.NY+p*s.LY+yl)*cls.NX,
					(yl*cls.NZ+p*s.LZ+zl)*cls.NX)
			}
		}
	}
}

// stagePlane packs z-plane zl's per-destination rows into the send
// blocks (verify mode).
func (s *slab) stagePlane(zl int) {
	if s.stage != nil {
		s.rows(zl, zl+1, func(blk, a, _ int) { copy(s.stage[blk:blk+s.cls.NX], s.a[a:]) })
	}
}

// stageForward packs every send block from the z-slab (verify mode).
func (s *slab) stageForward() {
	for zl := 0; zl < s.LZ; zl++ {
		s.stagePlane(zl)
	}
}

// unpackY rearranges the received blocks into the y-slab (verify mode).
func (s *slab) unpackY() {
	if s.in != nil {
		s.rows(0, s.LZ, func(blk, _, d int) { copy(s.d[d:d+s.cls.NX], s.in[blk:]) })
	}
}
