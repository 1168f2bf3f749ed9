// Package upc implements a UPC-style PGAS language runtime on the
// simulated cluster fabric: SPMD thread launch (MYTHREAD/THREADS), a
// partitioned global address space with block-cyclic shared arrays,
// one-sided bulk copies (blocking and asynchronous with explicit
// synchronization handles), barriers, global locks, reductions, the
// Berkeley castability extension (pointer privatization),
// and the runtime thread-layout query. Two backend regimes mirror the
// Berkeley UPC options the thesis evaluates: process-based threads (one
// network connection each, optionally with inter-process shared memory —
// PSHM) and pthread-based threads (one shared connection per node, native
// shared memory).
package upc

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Backend selects how UPC language threads are realized.
type Backend int

const (
	// Processes runs each UPC thread as an OS process: one network
	// connection per thread; intra-node shared memory only via PSHM.
	Processes Backend = iota
	// Pthreads runs the node's UPC threads inside one process: they share
	// a single network connection and have native shared memory.
	Pthreads
)

// String names the backend.
func (b Backend) String() string {
	if b == Pthreads {
		return "pthreads"
	}
	return "processes"
}

// Config describes one SPMD execution.
type Config struct {
	Machine        *topo.Machine // cluster model (required)
	Conduit        string        // conduit preset name; "" = machine's DefaultConduit
	Threads        int           // THREADS
	ThreadsPerNode int           // blocked layout over nodes
	Backend        Backend
	PSHM           bool         // inter-process shared memory (Processes only)
	Binding        topo.Binding // intra-node placement policy
	Seed           int64        // engine seed
	// Tracer, when non-nil, receives the run's trace events in addition to
	// any process-default tracer (see internal/trace).
	Tracer trace.Tracer
	// Faults, when non-nil, is the deterministic fault schedule injected
	// into this run's fabric; nil falls back to the process-default
	// schedule installed by the -faults flag (see fault.SetDefault).
	Faults *fault.Schedule
}

// sharedMem reports whether two threads on the same node can address each
// other's shared segments directly (pthreads always; processes need PSHM).
func (c *Config) sharedMem() bool { return c.Backend == Pthreads || c.PSHM }

// conduit resolves the configured preset name, or the machine's default.
func (c *Config) conduit() (fabric.Conduit, error) {
	name := c.Conduit
	if name == "" {
		name = c.Machine.DefaultConduit
	}
	cond, ok := fabric.ConduitByName(name)
	if !ok {
		return fabric.Conduit{}, fmt.Errorf("upc: unknown conduit %q", name)
	}
	return cond, nil
}

func (c *Config) validate() error {
	if c.Machine == nil {
		return fmt.Errorf("upc: Config.Machine is required")
	}
	if c.Threads <= 0 {
		return fmt.Errorf("upc: Threads = %d", c.Threads)
	}
	if c.ThreadsPerNode <= 0 {
		return fmt.Errorf("upc: ThreadsPerNode = %d", c.ThreadsPerNode)
	}
	return nil
}

// Runtime is the per-execution state shared by all UPC threads.
type Runtime struct {
	Cfg     Config
	Eng     *sim.Engine
	Cluster *fabric.Cluster

	threads []*Thread
	places  []topo.Place
	eps     []*fabric.Endpoint // per thread (may alias per node under Pthreads)

	nodesUsed int
	barCost   sim.Duration
	bar       *sim.Rendezvous
	coll      collective
	// edges is true when the installed tracer opted into completion-edge
	// instants (trace.EdgeObserver); cached once so the hot paths pay a
	// single bool test.
	edges     bool
	allocs    []*sharedShape
	nextArray uint32 // shared-array ids for translation-cache keys
	xlate     xlateCosts
	interned  map[string]any
	// handles recycles async Handles: every thread and sub-thread view
	// of the run takes from and returns to this one list.
	handles sim.FreeList[Handle]

	// Fault-injection state: inj is nil when the run has no fault
	// schedule, which keeps every hot path on its zero-cost branch.
	inj   *fault.Injector
	dead  []bool // threads retired after their node crashed
	nDead int
	// reviveQ parks threads awaiting their node's scheduled revival, one
	// queue per node, woken by the injector's transition observer.
	reviveQ []sim.WaitQueue
}

// Intern returns the runtime-scoped singleton for key, creating it with mk
// on first use. Extensions (thread groups, sub-thread pools) use it to
// share state among the UPC threads of one run without global registries.
// It must be called from simulation context.
func (rt *Runtime) Intern(key string, mk func() any) any {
	if rt.interned == nil {
		rt.interned = make(map[string]any)
	}
	v, ok := rt.interned[key]
	if !ok {
		v = mk()
		rt.interned[key] = v
	}
	return v
}

// Stats summarizes a completed SPMD run.
type Stats struct {
	// Elapsed is the virtual wall-clock of the whole run.
	Elapsed sim.Duration
	// Threads echoes the thread count.
	Threads int
}

// Run executes main as an SPMD program over cfg.Threads UPC threads and
// returns run statistics. It is the analogue of launching a compiled UPC
// binary with upcrun.
func Run(cfg Config, main func(t *Thread)) (Stats, error) {
	rt, err := NewRuntime(cfg)
	if err != nil {
		return Stats{}, err
	}
	rt.Start(main)
	if err := rt.Eng.Run(); err != nil {
		return Stats{}, err
	}
	return Stats{Elapsed: rt.Eng.Now(), Threads: cfg.Threads}, nil
}

// NewRuntime builds the runtime without launching threads, for callers
// that need to co-schedule other simulated activity on the same engine.
func NewRuntime(cfg Config) (*Runtime, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cond, err := cfg.conduit()
	if err != nil {
		return nil, err
	}
	places, err := cfg.Machine.Layout(cfg.Threads, cfg.ThreadsPerNode, cfg.Binding)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	if cfg.Tracer != nil {
		// The default tracer (if any) already saw this engine's KRunBegin
		// from sim.New; replay the boundary for the config-level sink.
		cfg.Tracer.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc,
			Cat: "sim", Name: "run", Arg: cfg.Seed})
		eng.SetTracer(trace.Tee(eng.Tracer(), cfg.Tracer))
	}
	cl := fabric.NewCluster(eng, cfg.Machine, cond)

	rt := &Runtime{
		Cfg:     cfg,
		Eng:     eng,
		Cluster: cl,
		places:  places,
		eps:     make([]*fabric.Endpoint, cfg.Threads),
		dead:    make([]bool, cfg.Threads),
	}
	rt.edges = trace.WantsEdge(eng.Tracer())
	sched := cfg.Faults
	if sched == nil {
		sched = fault.Default()
	}
	inj, err := fault.Install(cl, sched)
	if err != nil {
		return nil, err
	}
	rt.nodesUsed = (cfg.Threads + cfg.ThreadsPerNode - 1) / cfg.ThreadsPerNode
	if inj != nil {
		rt.inj = inj
		rt.reviveQ = make([]sim.WaitQueue, rt.nodesUsed)
		inj.OnTransition(func(node int, down bool) {
			if !down && node < len(rt.reviveQ) {
				rt.reviveQ[node].WakeAll()
			}
		})
	}
	rt.barCost = cl.BarrierCost(rt.nodesUsed)
	var live func(int) bool // barrier and collective membership under faults
	if inj != nil {
		live = func(id int) bool { return !rt.dead[id] }
	}
	rt.bar = sim.NewRendezvous(cfg.Threads, live)
	rt.coll = collective{rv: sim.NewRendezvous(cfg.Threads, live), vals: make([]any, cfg.Threads)}
	m := cfg.Machine
	rt.xlate = xlateCosts{
		miss:   sim.FromSeconds(m.PtrXlate),
		hit:    sim.FromSeconds(m.PtrXlate * xlateHitFraction),
		assist: sim.FromSeconds(1 / (m.ClockGHz * 1e9)),
		cached: m.XlateCacheLines > 0,
		hw:     m.XlateAssist,
	}

	// Endpoints: one per thread under Processes; one per node, shared by
	// that node's threads, under Pthreads.
	if cfg.Backend == Pthreads {
		perNode := make([]*fabric.Endpoint, rt.nodesUsed)
		for i := range rt.eps {
			n := places[i].Node
			if perNode[n] == nil {
				perNode[n] = cl.MustEndpoint(n)
				perNode[n].MarkShared()
			}
			rt.eps[i] = perNode[n]
		}
	} else {
		for i := range rt.eps {
			rt.eps[i] = cl.MustEndpoint(places[i].Node)
		}
	}

	rt.threads = make([]*Thread, cfg.Threads)
	for i := 0; i < cfg.Threads; i++ {
		rt.threads[i] = &Thread{
			rt:    rt,
			ID:    i,
			N:     cfg.Threads,
			Place: places[i],
			ep:    rt.eps[i],
		}
	}
	return rt, nil
}

// Start launches every UPC thread on the engine; the caller must then run
// the engine (Run does both).
func (rt *Runtime) Start(main func(t *Thread)) {
	for _, t := range rt.threads {
		t := t
		rt.Eng.Go(fmt.Sprintf("upc%d", t.ID), func(p *sim.Proc) {
			t.P = p
			main(t)
			// Residual translation counters: threads that exit without a
			// final barrier (retired workers, early returns) still flush
			// their deltas, so trace-fed counter totals match XlateStats.
			t.flushXlateCounters()
		})
	}
}

// packSelf packs thread id's identity (thread and node on both ends)
// into a completion-edge Arg2 (see trace.CatEdge).
func (rt *Runtime) packSelf(id int) int64 {
	n := rt.places[id].Node
	return trace.PackEndpoints(id, id, n, n)
}

// Thread reports thread i's context (valid after NewRuntime).
func (rt *Runtime) Thread(i int) *Thread { return rt.threads[i] }

// OnNodeTransition registers fn to run in engine context at every
// crash/revive transition of the installed fault schedule; a no-op
// without one. Applications use it to wake their own parked workers, so
// a crash is observed promptly even by threads idling on an app-level
// wait queue (the runtime's own revival parks are woken internally).
func (rt *Runtime) OnNodeTransition(fn func(node int, down bool)) {
	if rt.inj != nil {
		rt.inj.OnTransition(fn)
	}
}

// PlaceOf reports the hardware placement of thread i.
func (rt *Runtime) PlaceOf(i int) topo.Place { return rt.places[i] }
