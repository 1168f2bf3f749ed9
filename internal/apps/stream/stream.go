// Package stream implements the two STREAM triad studies of the thesis:
// the *twisted* triad of Table 3.1 (odd-even neighbor exchange, comparing
// baseline shared-pointer access, bulk re-localization, pointer
// privatization via cast, and an OpenMP-style shared-memory reference) and
// the *hybrid* triad of Table 4.1 (UPC × OpenMP sub-thread configurations
// with and without binding). As FT does with its slabs (EXPERIMENTS.md
// D4), each kernel computes and verifies a real slice of at most
// realPerThrd elements per thread, while the memory, translation and
// transfer costs of the full ElemsPerThrd are charged to the virtual
// clock; the reported GB/s come from those charges alone.
package stream

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/subthread"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// Variant selects the twisted-triad implementation of Table 3.1.
type Variant int

const (
	// Baseline dereferences a shared pointer on every element access.
	Baseline Variant = iota
	// Relocalize bulk-copies the neighbor's operands into private buffers,
	// computes locally, and writes the result back with upc_memput.
	Relocalize
	// Cast privatizes the neighbor's partitions with bupc_cast and runs
	// the triad through plain pointers.
	Cast
	// OpenMPRef is the shared-memory reference implementation.
	OpenMPRef
)

// String names the variant as in Table 3.1.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "UPC baseline"
	case Relocalize:
		return "UPC with re-localization"
	case Cast:
		return "UPC with cast"
	case OpenMPRef:
		return "OpenMP baseline"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Variants lists the Table 3.1 rows in order.
func Variants() []Variant { return []Variant{Baseline, Relocalize, Cast, OpenMPRef} }

// Result is one measured configuration. Name is the table row: the
// variant for RunTwisted, and, from Table41, the row's name.
type Result struct {
	Name    string
	GBps    float64
	Elapsed sim.Duration
}

const (
	triadScalar    = 3.0
	bytesPerElem   = 24 // read b and c (16B), write a (8B)
	defaultPerThrd = 1 << 20
	realPerThrd    = 4096 // elements per thread computed and verified for real
)

// TwistedConfig parameterizes one Table 3.1 run on one Lehman node.
type TwistedConfig struct {
	Threads      int
	ElemsPerThrd int
	Variant      Variant
	Seed         int64
	// Tracer, when non-nil, receives the run's trace events (required by
	// parallel sweeps, where the default tracer is detached).
	Tracer trace.Tracer
}

// RunTwisted executes the twisted triad on a single SMP node and reports
// aggregate triad bandwidth. The kernel verifies its own output.
func RunTwisted(cfg TwistedConfig) (Result, error) {
	mach := topo.Lehman()
	if cfg.Threads == 0 {
		cfg.Threads = mach.CoresPerNode()
	}
	if cfg.ElemsPerThrd == 0 {
		cfg.ElemsPerThrd = defaultPerThrd
	}
	n := cfg.ElemsPerThrd // charged
	m := min(n, realPerThrd)
	total := n * cfg.Threads
	ucfg := upc.Config{
		Machine:        mach,
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.Threads,
		Backend:        upc.Processes,
		PSHM:           true,
		// Core-blocked binding keeps odd-even neighbor pairs on one
		// socket, as the paper's bound runs do.
		Binding: topo.BindCoreBlocked,
		Seed:    cfg.Seed,
		Tracer:  cfg.Tracer,
	}
	var kernel sim.Duration
	var errOut error
	_, err := upc.Run(ucfg, func(t *upc.Thread) {
		a := upc.Alloc[float64](t, m*t.N, 8, m)
		b := upc.Alloc[float64](t, m*t.N, 8, m)
		c := upc.Alloc[float64](t, m*t.N, 8, m)
		// Initialize own partitions (first touch on own socket).
		for i := range b.Local(t) {
			b.Local(t)[i] = float64(t.ID*n + i)
			c.Local(t)[i] = 2
		}
		t.Barrier()

		// The twisted pattern: thread 2k works on 2k+1's partition and
		// vice versa. The run is one PSHM node, so every peer is
		// castable by construction.
		peer := t.ID ^ 1
		if peer >= t.N {
			peer = t.ID
		}
		peerSocket := t.Runtime().PlaceOf(peer).Socket

		start := t.Now()
		switch cfg.Variant {
		case Baseline:
			// Real compute through the peer's segments; cost charged as
			// three translated shared accesses per element plus the
			// memory stream from the peer's socket.
			pa, pb, pc := a.Cast(t, peer), b.Cast(t, peer), c.Cast(t, peer)
			for i := range pa {
				pa[i] = pb[i] + triadScalar*pc[i]
			}
			t.ChargeXlate(3 * int64(n))
			t.MemStreamFrom(bytesPerElem*int64(n), peerSocket)
		case Relocalize:
			// Each bulk transfer is charged for the peer's whole
			// partition and then copies its real slice.
			pa, pb, pc := a.Cast(t, peer), b.Cast(t, peer), c.Cast(t, peer)
			lb := make([]float64, m)
			lc := make([]float64, m)
			la := make([]float64, m)
			t.GetBytes(peer, 8*int64(n))
			copy(lb, pb)
			t.GetBytes(peer, 8*int64(n))
			copy(lc, pc)
			for i := range la {
				la[i] = lb[i] + triadScalar*lc[i]
			}
			t.MemStream(bytesPerElem * int64(n))
			t.PutBytes(peer, 8*int64(n))
			copy(pa, la)
		case Cast, OpenMPRef:
			// The cast variant and the shared-memory reference run the
			// same twisted access through plain pointers; they differ
			// only in name.
			pa, pb, pc := a.Cast(t, peer), b.Cast(t, peer), c.Cast(t, peer)
			for i := range pa {
				pa[i] = pb[i] + triadScalar*pc[i]
			}
			t.MemStreamFrom(bytesPerElem*int64(n), peerSocket)
		}
		t.Barrier()
		if t.ID == 0 {
			kernel = t.Now() - start
		}

		// Verify: a[peer partition] = b + 3c everywhere.
		la := a.Local(t)
		lbv := b.Local(t)
		lcv := c.Local(t)
		for i := range la {
			want := lbv[i] + triadScalar*lcv[i]
			if la[i] != want && errOut == nil {
				errOut = fmt.Errorf("stream: thread %d element %d = %g, want %g",
					t.ID, i, la[i], want)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	if errOut != nil {
		return Result{}, errOut
	}
	gbps := float64(total) * bytesPerElem / kernel.Seconds() / 1e9
	return Result{Name: cfg.Variant.String(), GBps: gbps, Elapsed: kernel}, nil
}

// Table31 regenerates Table 3.1 on the Lehman node model, one variant
// after another.
func Table31(seed int64) ([]Result, error) {
	var out []Result
	for _, v := range Variants() {
		r, err := RunTwisted(TwistedConfig{Variant: v, Seed: seed})
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// HybridConfig parameterizes one Table 4.1 row: UPCThreads masters, each
// with SubThreads sub-threads (1×1 meaning plain single-thread), on one
// Lehman node.
type HybridConfig struct {
	UPCThreads   int
	SubThreads   int
	Bound        bool
	FirstTouch   bool // sub-threads first-touch their chunks (pure-OpenMP style)
	ElemsPerThrd int  // per sub-thread
	Seed         int64
	// Tracer, when non-nil, receives the run's trace events.
	Tracer trace.Tracer
}

// RunHybrid executes the hybrid UPC×OpenMP triad of Table 4.1 and reports
// aggregate bandwidth.
func RunHybrid(cfg HybridConfig) (Result, error) {
	if cfg.ElemsPerThrd == 0 {
		cfg.ElemsPerThrd = defaultPerThrd
	}
	per := cfg.ElemsPerThrd // charged per sub-thread
	m := min(per, realPerThrd)
	total := per * cfg.SubThreads * cfg.UPCThreads
	ucfg := upc.Config{
		Machine:        topo.Lehman(),
		Threads:        cfg.UPCThreads,
		ThreadsPerNode: cfg.UPCThreads,
		Backend:        upc.Processes,
		PSHM:           true,
		Binding:        topo.BindSocketRR, // numactl round-robin, as the paper
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
	}
	var kernel sim.Duration
	var errOut error
	_, err := upc.Run(ucfg, func(t *upc.Thread) {
		part := m * cfg.SubThreads // real elements per UPC thread
		a := upc.Alloc[float64](t, part*t.N, 8, part)
		b := upc.Alloc[float64](t, part*t.N, 8, part)
		c := upc.Alloc[float64](t, part*t.N, 8, part)
		for i := range b.Local(t) {
			b.Local(t)[i] = float64(i)
			c.Local(t)[i] = 2
		}
		tm, err := subthread.NewTeam(t, subthread.Config{
			Kind:   subthread.OMP,
			N:      cfg.SubThreads,
			Bound:  cfg.Bound,
			Safety: subthread.Funneled,
		})
		if err != nil {
			errOut = err
			return
		}
		t.Barrier()
		start := t.Now()
		la, lb, lc := a.Local(t), b.Local(t), c.Local(t)
		tm.ParallelFor(cfg.SubThreads, func(s *subthread.Sub, w int) {
			for i := w * m; i < (w+1)*m; i++ {
				la[i] = lb[i] + triadScalar*lc[i]
			}
			if cfg.FirstTouch {
				s.MemStreamHomed(bytesPerElem*int64(per), s.Place.Socket)
			} else {
				s.MemStream(bytesPerElem * int64(per))
			}
		})
		t.Barrier()
		if t.ID == 0 {
			kernel = t.Now() - start
		}
		for i := range la {
			if want := lb[i] + triadScalar*lc[i]; la[i] != want && errOut == nil {
				errOut = fmt.Errorf("stream: hybrid element %d = %g, want %g", i, la[i], want)
			}
		}
	})
	if err != nil {
		return Result{}, err
	}
	if errOut != nil {
		return Result{}, errOut
	}
	gbps := float64(total) * bytesPerElem / kernel.Seconds() / 1e9
	return Result{GBps: gbps, Elapsed: kernel}, nil
}

// HybridRow is one row of Table 4.1: a configuration and its name.
type HybridRow struct {
	Name   string
	Config HybridConfig
}

// Table41Rows lists the rows of Table 4.1 in order: pure UPC, pure
// OpenMP, and the 1×8 / 2×4 / 4×2 hybrid configurations.
func Table41Rows() []HybridRow {
	return []HybridRow{
		{"UPC 8", HybridConfig{UPCThreads: 8, SubThreads: 1, Bound: true}},
		// The pure OpenMP reference is not socket-confined (no numactl):
		// its threads scatter across both sockets and first-touch their
		// chunks.
		{"OpenMP 8", HybridConfig{UPCThreads: 1, SubThreads: 8, FirstTouch: true}},
		{"UPC*OpenMP 1*8 (unbound)", HybridConfig{UPCThreads: 1, SubThreads: 8}},
		{"UPC*OpenMP 2*4", HybridConfig{UPCThreads: 2, SubThreads: 4, Bound: true}},
		{"UPC*OpenMP 4*2", HybridConfig{UPCThreads: 4, SubThreads: 2, Bound: true}},
	}
}

// Table41 regenerates Table 4.1 on the Lehman node model, one row after
// another.
func Table41(seed int64) ([]Result, error) {
	var out []Result
	for _, row := range Table41Rows() {
		cfg := row.Config
		cfg.Seed = seed
		r, err := RunHybrid(cfg)
		if err != nil {
			return nil, err
		}
		r.Name = row.Name
		out = append(out, r)
	}
	return out, nil
}
