package ft

import (
	"encoding/binary"
	"math"
	"math/cmplx"

	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
)

// mpiWorker is one MPI rank's per-run state (the Fortran reference).
type mpiWorker struct {
	cfg *Config
	cls Class
	c   *mpi.Comm
	P   int
	LZ  int
	LY  int
	B   int

	phases   map[string]sim.Duration // this rank's per-phase totals
	measured bool                    // inside the timed region (phase spans are emitted)

	a     []complex128
	d     []complex128
	stage []complex128
}

// runMPI executes the MPI reference implementation (split-phase, tuned
// Alltoall collective).
func runMPI(cfg Config) (Result, error) {
	cond, err := cfg.conduit()
	if err != nil {
		return Result{}, err
	}
	mcfg := mpi.Config{
		Machine:      cfg.Machine,
		Conduit:      cond,
		Ranks:        cfg.Threads,
		RanksPerNode: cfg.PerNode,
		Binding:      topo.BindSocketRR,
		Seed:         cfg.Seed,
		Tracer:       cfg.Tracer,
	}
	res := Result{Phases: map[string]sim.Duration{}}
	var start, stop sim.Time
	var maxErr float64
	verified := true

	_, err = mpi.Run(mcfg, func(c *mpi.Comm) {
		w := &mpiWorker{
			cfg: &cfg, cls: cfg.Class, c: c, P: c.Size,
			LZ: cfg.Class.NZ / c.Size, LY: cfg.Class.NY / c.Size,
			phases: map[string]sim.Duration{},
		}
		w.B = w.LZ * w.LY * cfg.Class.NX
		if cfg.Verify {
			w.a = make([]complex128, w.LZ*cfg.Class.NY*cfg.Class.NX)
			w.d = make([]complex128, w.LY*cfg.Class.NZ*cfg.Class.NX)
			w.stage = make([]complex128, w.P*w.B)
			w.initData()
			c.Barrier()
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
		w.forward()
		c.Barrier()
		w.phases = map[string]sim.Duration{} // discard setup-phase charges
		w.measured = true
		if c.Rank == 0 {
			start = c.P.Now()
		}
		for iter := 0; iter < w.cls.Iters; iter++ {
			w.evolve()
			w.forward()
			w.timed("checksum", func() {
				c.AllreduceSum(float64(c.Rank))
			})
		}
		c.Barrier()
		if c.Rank == 0 {
			stop = c.P.Now()
		}
		mergePhases(&res, w.phases)
	})
	if err != nil {
		return Result{}, err
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

func (w *mpiWorker) timed(phase string, fn func()) {
	end := noopSpan
	if w.measured {
		end = w.c.P.TraceSpan("ft", phase)
	}
	t0 := w.c.P.Now()
	fn()
	w.phases[phase] += w.c.P.Now() - t0
	end()
}

func (w *mpiWorker) compute(seconds float64) {
	w.c.World().Cluster.Compute(w.c.P, w.c.Place, seconds)
}

func (w *mpiWorker) initValue(z, y, x int) complex128 {
	s := float64(z*7+y*13+x*29) * 0.001
	return complex(math.Sin(s), math.Cos(1.3*s))
}

func (w *mpiWorker) initData() {
	cls := w.cls
	for zl := 0; zl < w.LZ; zl++ {
		z := w.c.Rank*w.LZ + zl
		for y := 0; y < cls.NY; y++ {
			for x := 0; x < cls.NX; x++ {
				w.a[(zl*cls.NY+y)*cls.NX+x] = w.initValue(z, y, x)
			}
		}
	}
}

func (w *mpiWorker) compare() float64 {
	cls := w.cls
	worst := 0.0
	for zl := 0; zl < w.LZ; zl++ {
		z := w.c.Rank*w.LZ + zl
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

func (w *mpiWorker) evolve() {
	w.timed("evolve", func() {
		n := w.LZ * w.cls.NY * w.cls.NX
		w.compute(evolveSeconds(n, w.cfg.Machine.FlopsPerCore))
	})
}

func (w *mpiWorker) forward() {
	cls := w.cls
	w.timed("fft2d", func() {
		if w.cfg.Verify {
			for zl := 0; zl < w.LZ; zl++ {
				plane := w.a[zl*cls.NY*cls.NX : (zl+1)*cls.NY*cls.NX]
				fft.Transform2D(plane, cls.NY, cls.NX, false)
			}
		}
		w.compute(float64(w.LZ) * cls.fft2DSeconds(w.cfg.Machine.FlopsPerCore))
	})
	w.timed("transpose", func() {
		w.compute(transposeSeconds(w.LZ * cls.NY * cls.NX))
		if w.cfg.Verify {
			w.stageForward()
		}
	})
	w.exchange(false)
	w.timed("transpose", func() {
		w.compute(transposeSeconds(w.LY * cls.NZ * cls.NX))
	})
	w.timed("fft1d", func() {
		if w.cfg.Verify {
			scratch := make([]complex128, cls.NZ)
			for yl := 0; yl < w.LY; yl++ {
				for x := 0; x < cls.NX; x++ {
					fft.Strided(w.d, yl*cls.NZ*cls.NX+x, cls.NX, cls.NZ, false, scratch)
				}
			}
		}
		w.compute(float64(w.LY) * cls.fft1DSeconds(cls.NX, w.cfg.Machine.FlopsPerCore))
	})
}

// exchange performs the all-to-all: real marshaled payloads in verify
// mode, model transfers otherwise. In the forward direction the received
// blocks scatter into the y-slab; inverted, into the z-slab.
func (w *mpiWorker) exchange(intoZSlab bool) {
	cls := w.cls
	if !w.cfg.Verify {
		w.timed("comm-call", func() {
			w.c.AlltoallModel(int64(w.B) * 16)
		})
		return
	}
	send := make([][]byte, w.P)
	for dst := 0; dst < w.P; dst++ {
		send[dst] = marshalComplex(w.stage[dst*w.B : (dst+1)*w.B])
	}
	var got [][]byte
	w.timed("comm-call", func() {
		got = w.c.Alltoall(send)
	})
	for src := 0; src < w.P; src++ {
		blk := unmarshalComplex(got[src])
		for zl := 0; zl < w.LZ; zl++ {
			for yl := 0; yl < w.LY; yl++ {
				row := blk[(zl*w.LY+yl)*cls.NX : (zl*w.LY+yl+1)*cls.NX]
				if intoZSlab {
					y := src*w.LY + yl
					copy(w.a[(zl*cls.NY+y)*cls.NX:(zl*cls.NY+y+1)*cls.NX], row)
				} else {
					z := src*w.LZ + zl
					copy(w.d[(yl*cls.NZ+z)*cls.NX:(yl*cls.NZ+z+1)*cls.NX], row)
				}
			}
		}
	}
}

func (w *mpiWorker) stageForward() {
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

func (w *mpiWorker) inverse() {
	cls := w.cls
	scratch := make([]complex128, cls.NZ)
	for yl := 0; yl < w.LY; yl++ {
		for x := 0; x < cls.NX; x++ {
			fft.Strided(w.d, yl*cls.NZ*cls.NX+x, cls.NX, cls.NZ, true, scratch)
		}
	}
	for dst := 0; dst < w.P; dst++ {
		for zl := 0; zl < w.LZ; zl++ {
			z := dst*w.LZ + zl
			for yl := 0; yl < w.LY; yl++ {
				copy(w.stage[dst*w.B+(zl*w.LY+yl)*cls.NX:dst*w.B+(zl*w.LY+yl+1)*cls.NX],
					w.d[(yl*cls.NZ+z)*cls.NX:(yl*cls.NZ+z+1)*cls.NX])
			}
		}
	}
	w.exchange(true)
	for zl := 0; zl < w.LZ; zl++ {
		plane := w.a[zl*cls.NY*cls.NX : (zl+1)*cls.NY*cls.NX]
		fft.Transform2D(plane, cls.NY, cls.NX, true)
	}
}

// marshalComplex encodes complex128 values little-endian.
func marshalComplex(v []complex128) []byte {
	out := make([]byte, len(v)*16)
	for i, c := range v {
		binary.LittleEndian.PutUint64(out[i*16:], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(out[i*16+8:], math.Float64bits(imag(c)))
	}
	return out
}

// unmarshalComplex decodes marshalComplex's output.
func unmarshalComplex(b []byte) []complex128 {
	out := make([]complex128, len(b)/16)
	for i := range out {
		re := math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
		out[i] = complex(re, im)
	}
	return out
}
