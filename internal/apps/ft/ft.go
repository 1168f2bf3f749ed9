package ft

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/subthread"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Variant selects the execution model under test.
type Variant int

const (
	// MPIFortran is the reference two-sided implementation (pairwise
	// all-to-all).
	MPIFortran Variant = iota
	// UPCProcesses is process-based UPC with PSHM.
	UPCProcesses
	// UPCPthreads is the pthreads UPC backend (shared node connection).
	UPCPthreads
	// HybridOMP is hierarchical UPC with OpenMP sub-threads.
	HybridOMP
	// HybridCilk is hierarchical UPC with Cilk++ sub-threads.
	HybridCilk
	// HybridPool is hierarchical UPC with the in-house thread pool.
	HybridPool
)

// String names the variant as in the figures.
func (v Variant) String() string {
	switch v {
	case MPIFortran:
		return "MPI"
	case UPCProcesses:
		return "UPC (processes)"
	case UPCPthreads:
		return "UPC (pthreads)"
	case HybridOMP:
		return "UPC*OpenMP"
	case HybridCilk:
		return "UPC*Cilk++"
	case HybridPool:
		return "UPC*Thread-Pool"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Hybrid reports whether the variant runs sub-threads under UPC masters.
func (v Variant) Hybrid() bool {
	return v == HybridOMP || v == HybridCilk || v == HybridPool
}

// subKind maps hybrid variants onto sub-thread runtimes.
func (v Variant) subKind() subthread.Kind {
	switch v {
	case HybridCilk:
		return subthread.Cilk
	case HybridPool:
		return subthread.Pool
	default:
		return subthread.OMP
	}
}

// Impl selects the communication algorithm.
type Impl int

const (
	// SplitPhase computes and communicates in distinct bulk-synchronous
	// phases, like the Fortran-MPI original.
	SplitPhase Impl = iota
	// Overlap initiates each z-plane's exchange as soon as its 2D FFT
	// finishes (non-blocking puts), overlapping communication with the
	// remaining computation.
	Overlap
)

// String names the implementation.
func (i Impl) String() string {
	if i == Overlap {
		return "overlap"
	}
	return "split-phase"
}

// Config parameterizes one FT execution. Each run uses the machine's
// default conduit, and process UPC runs with PSHM, as the paper's runs do.
type Config struct {
	Machine    *topo.Machine
	Class      Class
	Variant    Variant
	Impl       Impl
	Threads    int // UPC threads or MPI ranks (hybrid: masters)
	PerNode    int // of the above, per node
	SubThreads int // hybrid: sub-threads per master (others: ignored)
	Verify     bool
	Seed       int64
	// Tracer, when non-nil, receives the run's trace events; the measured
	// iterations emit "ft" phase spans matching the Phases breakdown.
	Tracer trace.Tracer
}

// Result summarizes one FT execution.
type Result struct {
	// Elapsed covers the timed iterations (setup transform excluded).
	Elapsed sim.Duration
	// PerIter is Elapsed / iterations.
	PerIter sim.Duration
	// Phases holds, per phase name (evolve, fft2d, transpose, fft1d,
	// comm-call, comm-wait, checksum), the maximum across execution
	// contexts of virtual time spent.
	Phases map[string]sim.Duration
	// Comm is comm-call + comm-wait: the Figure 4.5 metric.
	Comm sim.Duration
	// Verified and MaxErr report the inverse round-trip check (verify
	// mode only).
	Verified bool
	MaxErr   float64
}

func (c *Config) validate() error {
	if c.Machine == nil {
		return fmt.Errorf("ft: Config.Machine is required")
	}
	if c.Threads <= 0 || c.PerNode <= 0 {
		return fmt.Errorf("ft: Threads=%d PerNode=%d", c.Threads, c.PerNode)
	}
	if !c.Class.Decomposable(c.Threads) {
		return fmt.Errorf("ft: class %v does not decompose over %d threads", c.Class, c.Threads)
	}
	if c.Variant.Hybrid() && c.SubThreads <= 0 {
		return fmt.Errorf("ft: hybrid variant needs SubThreads >= 1")
	}
	if c.Variant == MPIFortran && c.Impl == Overlap {
		return fmt.Errorf("ft: the MPI reference is split-phase only")
	}
	return nil
}

// Run executes the configured FT benchmark.
func Run(cfg Config) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	if cfg.Variant == MPIFortran {
		return runMPI(cfg)
	}
	return runUPC(cfg)
}
