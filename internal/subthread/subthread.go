// Package subthread implements the hierarchical UPC/sub-threads model of
// Chapter 4: each SPMD UPC thread acts as a master that forks and joins
// lightweight shared-memory sub-threads at arbitrary program points. Three
// scheduler flavors mirror the runtimes the thesis evaluates — OpenMP-like
// static work sharing, a Cilk++-like work-first scheduler (higher per-
// spawn overhead and a small compute inefficiency, matching the observed
// ~10% FFT slowdown), and the in-house thread-pool prototype with a
// central task queue. Sub-threads may issue UPC operations subject to an
// MPI-style thread-safety level.
package subthread

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/upc"
)

// Kind selects the sub-thread runtime.
type Kind int

const (
	// OMP models OpenMP parallel regions: static chunking, lowest
	// fork/join and per-task overheads.
	OMP Kind = iota
	// Cilk models Cilk++: work-first spawning with higher per-spawn cost
	// and a small constant-factor compute overhead.
	Cilk
	// Pool models the thesis's in-house pthread pool prototype: a central
	// task queue with moderate overheads.
	Pool
)

// String names the runtime kind.
func (k Kind) String() string {
	switch k {
	case OMP:
		return "openmp"
	case Cilk:
		return "cilk"
	case Pool:
		return "pool"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Per-runtime cost parameters, calibrated to the relative standings of
// Figure 4.6 (OpenMP best, pool close behind, Cilk++ trailing).
func (k Kind) forkOverhead() sim.Duration {
	switch k {
	case Cilk:
		return 5 * sim.Microsecond
	case Pool:
		return 3 * sim.Microsecond
	default:
		return 1500 * sim.Nanosecond
	}
}

func (k Kind) taskOverhead() sim.Duration {
	switch k {
	case Cilk:
		return 1200 * sim.Nanosecond
	case Pool:
		return 800 * sim.Nanosecond
	default:
		return 300 * sim.Nanosecond
	}
}

// computeFactor inflates compute charges (Cilk++'s compiled output ran
// ~10% slower on the FFT kernels in the thesis).
func (k Kind) computeFactor() float64 {
	if k == Cilk {
		return 1.1
	}
	return 1.0
}

// Safety is the MPI-2-style thread-support level governing UPC calls from
// sub-threads (Section 4.2.3).
type Safety int

// The values match MPI's THREAD_* ordering, whose THREAD_SERIALIZED (2)
// this model does not tell apart from Multiple.
const (
	// Single: no sub-thread may issue UPC operations.
	Single Safety = 0
	// Funneled: only the master executes UPC operations.
	Funneled Safety = 1
	// Multiple: unrestricted concurrent UPC operations.
	Multiple Safety = 3
)

// String names the safety level.
func (s Safety) String() string {
	switch s {
	case Single:
		return "single"
	case Funneled:
		return "funneled"
	case Multiple:
		return "multiple"
	}
	return fmt.Sprintf("Safety(%d)", int(s))
}

// Config describes a sub-thread team.
type Config struct {
	Kind   Kind
	N      int  // team size, including the master as worker 0
	Bound  bool // inherit the master's socket affinity (true = numactl-style)
	Safety Safety
}

// task is one unit of spawned work.
type task func(s *Sub)

// Team is one master UPC thread's sub-thread pool, created once and
// reused across parallel regions (the thread-pool pattern of Section
// 4.2.2).
type Team struct {
	T   *upc.Thread
	Cfg Config

	places   []topo.Place
	tasks    []task
	inFlight int
	idle     sim.WaitQueue // parked workers
	syncers  sim.WaitQueue // masters blocked in Sync
	inPar    bool          // a parallel region is open (ParallelFor)
}

// NewTeam creates a team of cfg.N sub-threads under master t. Worker 0 is
// the master itself; workers 1..N-1 are persistent daemon processes
// placed per the binding policy.
func NewTeam(t *upc.Thread, cfg Config) (*Team, error) {
	if cfg.N <= 0 {
		return nil, fmt.Errorf("subthread: team size %d", cfg.N)
	}
	m := t.Runtime().Cfg.Machine
	var places []topo.Place
	var err error
	if cfg.Bound {
		places, err = m.SubPlaces(t.Place, cfg.N)
	} else {
		places, err = m.ScatterPlaces(t.Place.Node, cfg.N)
	}
	if err != nil {
		return nil, err
	}
	tm := &Team{T: t, Cfg: cfg, places: places}
	for w := 1; w < cfg.N; w++ {
		w := w
		p := t.P.Go(fmt.Sprintf("upc%d.sub%d", t.ID, w), func(p *sim.Proc) {
			tm.workerLoop(p, w)
		})
		p.SetDaemon(true)
	}
	return tm, nil
}

// Size reports the team size (master included).
func (tm *Team) Size() int { return tm.Cfg.N }

// Sub is a sub-thread execution context during a task.
type Sub struct {
	Team  *Team
	P     *sim.Proc
	Rank  int // worker index within the team (0 = master)
	Place topo.Place
}

// IsMaster reports whether this context is the master UPC thread itself.
func (s *Sub) IsMaster() bool { return s.Rank == 0 }

// Compute charges seconds of core work at the sub-thread's place,
// inflated by the runtime's compute factor and contending on the core.
func (s *Sub) Compute(seconds float64) {
	s.Team.T.Runtime().Cluster.Compute(s.P, s.Place,
		seconds*s.Team.Cfg.Kind.computeFactor())
}

// MemStream charges streaming access of bytes whose backing memory was
// first-touched by the master UPC thread (shared arrays live on the
// master's socket) — the ccNUMA effect behind Table 4.1.
func (s *Sub) MemStream(bytes int64) {
	s.MemStreamHomed(bytes, s.Team.T.Place.Socket)
}

// MemStreamHomed charges streaming access against an explicit home socket
// of this node (e.g. data the sub-threads first-touched themselves).
func (s *Sub) MemStreamHomed(bytes int64, homeSocket int) {
	s.Team.T.Runtime().Cluster.MemTouch(s.P, s.Place, homeSocket, bytes)
}

// UPC returns the UPC thread view this sub-thread uses for one-sided
// operations, after enforcing the team's thread-safety level.
func (s *Sub) UPC() *upc.Thread {
	switch s.Team.Cfg.Safety {
	case Single:
		panic("subthread: UPC call from a parallel region under THREAD_SINGLE")
	case Funneled:
		if !s.IsMaster() {
			panic("subthread: UPC call from a non-master sub-thread under THREAD_FUNNELED")
		}
	}
	return s.Team.T.OnProc(s.P, s.Place)
}

// ---- Scheduling ----

// Spawn enqueues a task (cilk_spawn / omp task). It may be called by the
// master or, for nested parallelism, from a running task.
func (tm *Team) Spawn(fn func(s *Sub)) {
	tm.tasks = append(tm.tasks, fn)
	tm.idle.WakeOne()
}

// Sync runs tasks on the master until the bag drains and all workers are
// idle (cilk_sync / end of omp taskgroup). The master participates in the
// work (work-first execution).
func (tm *Team) Sync() {
	end := tm.T.P.TraceSpan("subthread", "sync")
	master := &Sub{Team: tm, P: tm.T.P, Rank: 0, Place: tm.places[0]}
	for {
		if len(tm.tasks) > 0 {
			tm.runOne(master)
			continue
		}
		if tm.inFlight == 0 {
			end()
			return
		}
		tm.syncers.Wait(tm.T.P, "subthread-sync")
	}
}

// ParallelFor executes body for every index in [0, n) across the team and
// joins (omp parallel for / cilk_for). OMP uses static chunking (one
// contiguous range per worker, one scheduling event each); Cilk and Pool
// self-schedule individual indices. The master is charged the fork
// overhead and participates.
func (tm *Team) ParallelFor(n int, body func(s *Sub, i int)) {
	if n <= 0 {
		return
	}
	if tm.inPar {
		panic("subthread: nested ParallelFor on one team")
	}
	tm.inPar = true
	defer func() { tm.inPar = false }()

	end := tm.T.P.TraceSpanArg("subthread", "parallel-for", tm.Cfg.Kind.String(), int64(n))
	defer end()
	tm.T.P.Advance(tm.Cfg.Kind.forkOverhead())
	if tm.Cfg.Kind == OMP {
		w := tm.Cfg.N
		if w > n {
			w = n
		}
		for i := 0; i < w; i++ {
			lo, hi := i*n/w, (i+1)*n/w
			tm.Spawn(func(s *Sub) {
				for j := lo; j < hi; j++ {
					body(s, j)
				}
			})
		}
	} else {
		for i := 0; i < n; i++ {
			i := i
			tm.Spawn(func(s *Sub) { body(s, i) })
		}
	}
	tm.Sync()
}

// runOne pops and executes one task in context s, charging the per-task
// scheduling overhead.
func (tm *Team) runOne(s *Sub) {
	fn := tm.tasks[0]
	copy(tm.tasks, tm.tasks[1:])
	tm.tasks[len(tm.tasks)-1] = nil
	tm.tasks = tm.tasks[:len(tm.tasks)-1]
	tm.inFlight++
	s.P.TraceInstant("subthread", "task", tm.Cfg.Kind.String(), int64(s.Rank), 0)
	s.P.Advance(tm.Cfg.Kind.taskOverhead())
	fn(s)
	tm.inFlight--
	if len(tm.tasks) == 0 && tm.inFlight == 0 {
		tm.syncers.WakeAll()
	}
}

// workerLoop is the persistent body of a pool worker.
func (tm *Team) workerLoop(p *sim.Proc, rank int) {
	s := &Sub{Team: tm, P: p, Rank: rank, Place: tm.places[rank]}
	for {
		for len(tm.tasks) == 0 {
			tm.idle.Wait(p, "subthread-idle")
		}
		tm.runOne(s)
	}
}
