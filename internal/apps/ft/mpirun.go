package ft

import (
	"encoding/binary"
	"math"

	"repro/internal/mpi"
)

// mpiWorker is one MPI rank's per-run state (the Fortran reference): the
// slab plus the pairwise Alltoall collective.
type mpiWorker struct {
	slab
	c *mpi.Comm
}

// runMPI executes the MPI reference implementation (split-phase,
// pairwise Alltoall collective).
func runMPI(cfg Config) (Result, error) {
	mcfg := mpi.Config{
		Machine:      cfg.Machine,
		Ranks:        cfg.Threads,
		RanksPerNode: cfg.PerNode,
		Seed:         cfg.Seed,
		Tracer:       cfg.Tracer,
	}
	r := newDriver(&cfg)
	_, err := mpi.Run(mcfg, func(c *mpi.Comm) {
		w := &mpiWorker{slab: newSlab(&cfg, c.World().Cluster, c.P, c.Place, c.Rank, c.Size), c: c}
		if cfg.Verify {
			w.in = make([]complex128, w.P*w.B)
		}
		r.run(&w.slab, w)
	})
	if err != nil {
		return Result{}, err
	}
	return r.result(), nil
}

func (w *mpiWorker) barrier() { w.c.Barrier() }

func (w *mpiWorker) checksum() { w.c.AllreduceSum(float64(w.c.Rank)) }

// exchange performs the all-to-all: real marshaled payloads in verify
// mode, model transfers otherwise.
func (w *mpiWorker) exchange() {
	if !w.cfg.Verify {
		w.timed("comm-call", func() {
			w.c.AlltoallModel(int64(w.B) * 16)
		})
		return
	}
	send := make([][]byte, w.P)
	for dst := range send {
		send[dst] = marshalComplex(w.stage[dst*w.B : (dst+1)*w.B])
	}
	var got [][]byte
	w.timed("comm-call", func() {
		got = w.c.Alltoall(send)
	})
	for src, b := range got {
		unmarshalComplex(w.in[src*w.B:(src+1)*w.B], b)
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

// unmarshalComplex decodes marshalComplex's output into dst.
func unmarshalComplex(dst []complex128, b []byte) {
	for i := range dst {
		re := math.Float64frombits(binary.LittleEndian.Uint64(b[i*16:]))
		im := math.Float64frombits(binary.LittleEndian.Uint64(b[i*16+8:]))
		dst[i] = complex(re, im)
	}
}
