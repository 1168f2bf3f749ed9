package uts

import (
	"fmt"
	"slices"

	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// Strategy selects the work-stealing policy (Section 3.3.2.1).
type Strategy int

const (
	// BaselineRR is the original UPC implementation's policy: probe
	// victims round-robin starting after the thief's own id.
	BaselineRR Strategy = iota
	// LocalSteal probes same-node (thread-group) victims first, accessed
	// through the pre-cast pointer table, before probing remote threads.
	LocalSteal
	// LocalRapid adds rapid work diffusion: a thief takes half of the
	// victim's available work when the victim's stack is rich enough,
	// bisecting the workload across groups.
	LocalRapid
)

// String names the strategy as in Figure 3.3's legend.
func (s Strategy) String() string {
	switch s {
	case LocalSteal:
		return "local-stealing"
	case LocalRapid:
		return "local-stealing + rapid-diffusion"
	}
	return "baseline"
}

// Strategies lists the Figure 3.3 variants in order.
func Strategies() []Strategy { return []Strategy{BaselineRR, LocalSteal, LocalRapid} }

// Config parameterizes one UTS execution.
type Config struct {
	Machine     *topo.Machine
	ConduitName string // "" = machine default ("ibv-ddr", "gige", ...)
	Threads     int
	PerNode     int
	Strategy    Strategy
	Granularity int // steal chunk (paper: 8 on InfiniBand, 20 on Ethernet)
	Batch       int // nodes processed per virtual-time charge (default 256)
	Tree        TreeSpec
	Seed        int64
	// Tracer, when non-nil, receives the run's trace events; the traversal
	// counters are emitted as "uts" trace counters, so a metrics
	// Collection's counter.* totals equal Result.Counters exactly.
	Tracer trace.Tracer
	// Faults, when non-nil, overrides the process-default fault schedule
	// (see internal/fault). The traversal then self-heals: lost messages
	// are retried, dead victims are struck from the probe rings, and a
	// crashed worker's unfinished work is re-rooted on the survivors, so
	// the tree count stays exact. Crash schedules must spare node 0
	// (thread 0 coordinates timing) and fire after startup.
	Faults *fault.Schedule
}

// nodeCost is the modeled per-node processing time (seconds),
// calibrated so per-thread throughput sits near the paper's ~1.8 M
// nodes/s.
const nodeCost = 0.52e-6

// stackCapacity is each thread's shared steal-stack region, in nodes.
const stackCapacity = 8192

// Result summarizes one UTS execution.
type Result struct {
	Nodes    int64
	MaxDepth uint32
	Elapsed  sim.Duration
	// MNodesPerSec is the Figure 3.3 metric.
	MNodesPerSec float64
	// Counters: nodes, steals, steals_local, probes, probes_failed,
	// releases, stolen_nodes.
	Counters perf.Counters
	// StealsByThread holds each thread's successful steals, indexed by
	// thread id (Table 3.2's per-thread spread).
	StealsByThread []int64
}

// LocalStealPct reports the percentage of successful steals that hit a
// same-node victim (Table 3.2).
func (r Result) LocalStealPct() float64 {
	if s := r.Counters.Get("steals"); s > 0 {
		return 100 * float64(r.Counters.Get("steals_local")) / float64(s)
	}
	return 0
}

// global is the run-wide coordination record shared by all threads.
type global struct {
	idle        int
	sharedTotal int64
	done        bool
	q           sim.WaitQueue
	nodes       int64
	maxDepth    uint32
	counters    perf.Counters
	steals      []int64 // per-thread successful steals
	// orphans holds work re-rooted from crashed workers (their private
	// stack remainder plus their shared steal region), awaiting adoption
	// by survivors.
	orphans []ref
	// ringGen counts membership changes (rejoins): workers whose probe
	// rings lag it rebuild them, re-admitting reincarnated victims.
	ringGen int
}

// ref names one tree node by its index in the tree table plus its depth:
// the 8 bytes a worker stacks, releases and steals in place of the
// 24-byte Node. Transfers are still charged NodeBytes a node, the UTS
// descriptor size, so the modeled costs do not depend on this encoding.
type ref struct{ Idx, Depth uint32 }

// Run executes the benchmark and verifies the traversal against the tree
// table's node count and depth.
func Run(cfg Config) (Result, error) {
	if cfg.Machine == nil {
		cfg.Machine = topo.Pyramid()
	}
	if err := cfg.Tree.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Threads <= 0 || cfg.PerNode <= 0 {
		return Result{}, fmt.Errorf("uts: Threads=%d PerNode=%d", cfg.Threads, cfg.PerNode)
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	tree, err := tables.get(cfg.Tree, buildTable)
	if err != nil {
		return Result{}, err
	}
	ucfg := upc.Config{
		Machine:        cfg.Machine,
		Conduit:        cfg.ConduitName,
		Threads:        cfg.Threads,
		ThreadsPerNode: cfg.PerNode,
		Backend:        upc.Processes, // paper: process-based with PSHM
		PSHM:           true,
		Seed:           cfg.Seed,
		Tracer:         cfg.Tracer,
		Faults:         cfg.Faults,
	}

	g := &global{counters: perf.Counters{}, steals: make([]int64, cfg.Threads)}
	var start, stop sim.Time
	_, err = upc.Run(ucfg, func(t *upc.Thread) {
		w := newWorker(t, &cfg, tree, g)
		if t.ID == 0 && t.Runtime().FaultsOn() {
			// Wake every idle-parked worker at each crash/revive edge:
			// a worker sleeping through its own node's whole outage would
			// otherwise never observe Failed and skip the failover/rejoin
			// protocol entirely.
			t.Runtime().OnNodeTransition(func(int, bool) { g.q.WakeAll() })
		}
		t.Barrier()
		if t.ID == 0 {
			start = t.Now()
		}
		w.run()
		if !w.dead {
			// Retired workers left the barrier population in die(); the
			// survivors rendezvous among themselves.
			t.Barrier()
		}
		if t.ID == 0 {
			stop = t.Now()
		}
		// The runtime's translation accounting rides the same trace
		// stream (xlate_access / xlate_hit / xlate_miss at barriers and
		// thread exit); mirror it into the app counters so trace-fed
		// consumers and Result.Counters agree exactly.
		xa, xh, xm := t.XlateStats()
		w.c.Add("xlate_access", xa)
		w.c.Add("xlate_hit", xh)
		w.c.Add("xlate_miss", xm)
		g.counters.Merge(w.c)
		g.steals[t.ID] = w.c.Get("steals")
		g.nodes += w.count
		if w.deepest > g.maxDepth {
			g.maxDepth = w.deepest
		}
	})
	if err != nil {
		return Result{}, err
	}
	if g.nodes != tree.nodes {
		return Result{}, fmt.Errorf("uts: parallel traversal visited %d nodes, the tree has %d",
			g.nodes, tree.nodes)
	}
	if g.maxDepth != tree.maxDepth {
		return Result{}, fmt.Errorf("uts: max depth %d, the tree's is %d", g.maxDepth, tree.maxDepth)
	}
	elapsed := stop - start
	return Result{
		Nodes:          g.nodes,
		MaxDepth:       g.maxDepth,
		Elapsed:        elapsed,
		MNodesPerSec:   float64(g.nodes) / elapsed.Seconds() / 1e6,
		Counters:       g.counters,
		StealsByThread: g.steals,
	}, nil
}

// meta is one thread's shared-region descriptor: the region holds
// Avail nodes at [Base, Base+Avail) of the thread's partition, oldest
// (shallowest, largest-subtree) first. Thieves take from the front.
type meta struct {
	Base  int64
	Avail int64
}

// worker is one UPC thread's traversal state.
type worker struct {
	t    *upc.Thread
	cfg  *Config
	tree *treeTable
	g    *global

	buf   *upc.Shared[ref]  // per-thread shared steal regions
	cnt   *upc.Shared[meta] // per-thread region descriptors
	locks []*upc.Lock

	local    []ref // private DFS stack (tail = top)
	head     int   // bottom index of the live region
	failures int   // consecutive failed steal sweeps (backoff control)
	cursor   int   // persistent probe position within victims
	count    int64
	deepest  uint32
	dead     bool // this worker's node crashed and it retired for good
	reborn   bool // this worker rejoined after a scheduled revival
	ringGen  int  // membership generation the probe rings reflect
	c        perf.Counters

	victims []int // baseline: full probe ring
	vLocal  []int // locality strategies: same-node victims, probed first
	vRemote []int // locality strategies: off-node ring behind the cursor
}

func newWorker(t *upc.Thread, cfg *Config, tree *treeTable, g *global) *worker {
	w := &worker{t: t, cfg: cfg, tree: tree, g: g, c: perf.Counters{}}
	w.buf = upc.Alloc[ref](t, stackCapacity*t.N, NodeBytes, stackCapacity)
	w.cnt = upc.Alloc[meta](t, t.N, 16, 1)
	w.locks = make([]*upc.Lock, t.N)
	for i := 0; i < t.N; i++ {
		w.locks[i] = upc.AllocLock(t, i)
	}
	if t.ID == 0 {
		w.local = append(w.local, ref{}) // the root: index 0, depth 0
	}
	w.probeOrder()
	return w
}

// probeOrder builds the victim lists. The baseline scans one ring of all
// victims round-robin from id+1 behind a persistent cursor. The locality
// strategies probe every same-node peer first (through the pre-cast
// pointer table, nearly free) and keep the persistent cursor for the
// off-node ring only.
func (w *worker) probeOrder() {
	t := w.t
	if w.cfg.Strategy == BaselineRR {
		for d := 1; d < t.N; d++ {
			w.victims = append(w.victims, (t.ID+d)%t.N)
		}
		return
	}
	group := t.SameNodeThreads()
	inGroup := make(map[int]bool, len(group))
	for _, m := range group {
		inGroup[m] = true
	}
	for d := 1; d < t.N; d++ {
		v := (t.ID + d) % t.N
		if inGroup[v] {
			w.vLocal = append(w.vLocal, v)
		} else {
			w.vRemote = append(w.vRemote, v)
		}
	}
}

// run is the Figure 3.2 state machine, extended with crash detection at
// its loop boundaries when a fault schedule is installed. A worker whose
// node the schedule revives parks inside die and rejoins the traversal
// (see die); only permanent crashes return early.
func (w *worker) run() {
	faults := w.t.Runtime().FaultsOn()
	for {
		for w.depth() > 0 {
			if faults && w.t.Failed() {
				if w.die() {
					return
				}
				break // stack was orphaned; restart the acquisition path
			}
			w.processBatch()
			w.maybeRelease()
		}
		if faults && w.t.Failed() {
			if w.die() {
				return
			}
			continue
		}
		if w.acquireOwn() {
			continue
		}
		if faults && w.acquireOrphans() {
			continue
		}
		if faults && w.ringGen != w.g.ringGen {
			// A peer rejoined since this worker built its probe rings:
			// rebuild them so the reincarnated victim is probed again.
			w.rebuildRings()
		}
		t0 := w.t.Now()
		ok := w.stealSweep()
		w.bump("ns_sweep", int64(w.t.Now()-t0))
		if ok {
			w.failures = 0
			continue
		}
		t0 = w.t.Now()
		done := w.enterIdle()
		w.bump("ns_idle", int64(w.t.Now()-t0))
		if done {
			return
		}
		// Work exists somewhere but this sweep missed it (contended locks,
		// in-flight releases): back off exponentially before rescanning
		// instead of hammering every victim's counter.
		w.failures++
		backoff := sim.Duration(20*sim.Microsecond) << uint(min(w.failures, 7))
		w.t.P.Advance(backoff)
	}
}

func (w *worker) depth() int { return len(w.local) - w.head }

// die handles a worker whose node crashed: its unfinished work — the
// private stack remainder plus its shared steal region — is re-rooted
// into the global orphan pool for the survivors to adopt. (The steal
// regions are modeled as replicated queue state the runtime can recover;
// survivors pay the failover pull when they adopt, see acquireOrphans.)
// The worker then leaves the barrier/collective population. When the
// schedule revives the node, the worker parks for the rebirth and
// rejoins the traversal — reporting false so run continues; a permanent
// crash (or a revival after the survivors finished) retires it for good
// and reports true.
func (w *worker) die() bool {
	t := w.t
	g := w.g
	orphans := append([]ref(nil), w.local[w.head:]...)
	m := w.cnt.Local(t)[0]
	if m.Avail > 0 {
		seg := w.buf.Local(t)
		orphans = append(orphans, seg[m.Base:m.Base+m.Avail]...)
		g.sharedTotal -= m.Avail
		w.cnt.Local(t)[0] = meta{}
	}
	w.local = w.local[:0]
	w.head = 0
	g.orphans = append(g.orphans, orphans...)
	w.bump("failovers", 1)
	t.FaultEvent("failover", t.ID, int64(len(orphans))*NodeBytes)
	t.Retire()
	g.q.WakeAll() // survivors re-check termination and find the orphans
	if !t.ReviveScheduled() {
		w.dead = true
		return true
	}
	t.AwaitRevive()
	if g.done {
		// The survivors finished while this node was down: stay retired
		// and skip the closing barrier (its generation has already been
		// sized to the survivor population).
		w.dead = true
		return true
	}
	w.rejoin()
	return false
}

// rejoin re-enters a revived worker into the traversal: runtime
// membership first (barrier population), then the
// application's own structures — fresh backoff state and a membership
// bump so every worker rebuilds its probe rings around the rejoiner.
func (w *worker) rejoin() {
	t := w.t
	t.Rejoin()
	w.reborn = true
	w.failures = 0
	w.bump("rejoins", 1)
	w.g.ringGen++
	w.rebuildRings()
	w.g.q.WakeAll() // idle survivors re-count the live population
}

// rebuildRings rebuilds the probe rings from the current membership:
// the strategy's full ring order, minus currently-dead victims.
func (w *worker) rebuildRings() {
	w.victims, w.vLocal, w.vRemote = nil, nil, nil
	w.cursor = 0
	w.ringGen = w.g.ringGen
	w.probeOrder()
	for v := 0; v < w.t.N; v++ {
		if v != w.t.ID && !w.t.Alive(v) {
			w.strike(v)
		}
	}
}

// acquireOrphans adopts a chunk of re-rooted work from crashed workers,
// charging the failover pull: a descriptor round trip plus streaming the
// adopted nodes.
func (w *worker) acquireOrphans() bool {
	g := w.g
	if len(g.orphans) == 0 {
		return false
	}
	k := 2 * w.cfg.Granularity
	if k > len(g.orphans) {
		k = len(g.orphans)
	}
	w.local = append(w.local, g.orphans[len(g.orphans)-k:]...)
	g.orphans = g.orphans[:len(g.orphans)-k]
	cond := &w.t.Runtime().Cluster.Conduit
	w.t.P.Advance(2 * cond.Latency)
	w.t.MemStream(int64(k) * NodeBytes)
	w.bump("orphans_taken", int64(k))
	w.t.FaultEvent("failover", w.t.ID, int64(k)*NodeBytes)
	return true
}

// strike removes a dead victim from every probe ring so later sweeps
// skip it without paying a probe.
func (w *worker) strike(v int) {
	w.victims = strikeFrom(w.victims, v)
	w.vLocal = strikeFrom(w.vLocal, v)
	w.vRemote = strikeFrom(w.vRemote, v)
	w.cursor = 0
}

func strikeFrom(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

// bump advances a traversal counter, mirroring it into the trace stream
// so trace-fed consumers (the -metrics manifest) see the same totals.
func (w *worker) bump(name string, n int64) {
	w.c.Add(name, n)
	w.t.P.TraceCounter("uts", name, n)
}

// processBatch pops and expands up to Batch nodes, charging one compute
// interval of nodeCost a node for the whole batch. The SHA-1 derivation
// that cost models ran once, when the tree table was built; here a node's
// children are read from the table and pushed last-first, so child 0 is
// expanded next, as in a depth-first walk of the SHA-1 chain.
func (w *worker) processBatch() {
	b := w.cfg.Batch
	done := 0
	for done < b && w.depth() > 0 {
		n := w.local[len(w.local)-1]
		w.local = w.local[:len(w.local)-1]
		w.count++
		done++
		if n.Depth > w.deepest {
			w.deepest = n.Depth
		}
		lo, hi := w.tree.children(n.Idx)
		for c := hi; c > lo; c-- {
			w.local = append(w.local, ref{Idx: c - 1, Depth: n.Depth + 1})
		}
	}
	w.bump("nodes", int64(done))
	w.t.Compute(float64(done) * nodeCost)
}

// maybeRelease moves surplus bottom-of-stack work into this thread's
// shared region so thieves can take it.
func (w *worker) maybeRelease() {
	chunk := w.cfg.Granularity
	for w.depth() > 2*chunk {
		// The descriptor must be read under the lock: a thief may advance
		// Base between an early read and our write, and a stale write
		// would resurrect already-stolen slots.
		w.locks[w.t.ID].Lock(w.t)
		m := w.cnt.Local(w.t)[0]
		if int(m.Base+m.Avail)+chunk > stackCapacity {
			if int(m.Avail)+chunk > stackCapacity {
				w.locks[w.t.ID].Unlock(w.t)
				return // region genuinely full
			}
			// Shift the live region to the front (a local memmove).
			seg := w.buf.Local(w.t)
			copy(seg, seg[m.Base:m.Base+m.Avail])
			w.t.MemStream(2 * m.Avail * NodeBytes)
			m.Base = 0
		}
		moved := w.local[w.head : w.head+chunk]
		upc.PutT(w.t, w.buf, w.t.ID, int(m.Base+m.Avail), moved)
		w.head += chunk
		m.Avail += int64(chunk)
		upc.WriteElem(w.t, w.cnt, w.t.ID, m)
		w.locks[w.t.ID].Unlock(w.t)
		w.g.sharedTotal += int64(chunk)
		w.bump("releases", 1)
		w.g.q.WakeAll() // idle thieves may find work now
		w.compact()
	}
}

// compact drops the released prefix once it dominates the backing slice.
func (w *worker) compact() {
	if w.head > 1024 && w.head*2 > len(w.local) {
		w.local = append(w.local[:0:0], w.local[w.head:]...)
		w.head = 0
	}
}

// acquireOwn pulls work back from this thread's own shared region.
func (w *worker) acquireOwn() bool {
	if w.cnt.Local(w.t)[0].Avail == 0 {
		return false
	}
	w.locks[w.t.ID].Lock(w.t)
	m := w.cnt.Local(w.t)[0]
	if m.Avail == 0 {
		w.locks[w.t.ID].Unlock(w.t)
		return false
	}
	k := m.Avail
	if k > int64(2*w.cfg.Granularity) {
		k = int64(2 * w.cfg.Granularity)
	}
	upc.GetT(w.t, w.buf, w.grow(k), w.t.ID, int(m.Base+m.Avail-k))
	m.Avail -= k
	upc.WriteElem(w.t, w.cnt, w.t.ID, m)
	w.locks[w.t.ID].Unlock(w.t)
	w.g.sharedTotal -= k
	return true
}

// grow extends the private stack by k slots and returns them, so reacquired
// and stolen work is read straight onto the top of the stack.
func (w *worker) grow(k int64) []ref {
	n := len(w.local)
	w.local = slices.Grow(w.local, int(k))[:n+int(k)]
	return w.local[n:]
}

// stealSweep probes victims in strategy order; it reports whether any
// work was obtained.
func (w *worker) stealSweep() bool {
	faults := w.t.Runtime().FaultsOn()
	// Locality strategies: scan the whole node group first, every sweep
	// (probes through the cast table are nearly free).
	for _, v := range w.vLocal {
		if faults && w.t.Failed() {
			// Died mid-sweep: bail at a victim boundary (no lock held) so
			// the run loop can retire this worker through die.
			return false
		}
		if w.tryVictim(v) {
			return true
		}
	}
	ring := w.victims
	if w.cfg.Strategy != BaselineRR {
		ring = w.vRemote
	}
	for i := 0; i < len(ring); i++ {
		if faults && w.t.Failed() {
			return false
		}
		// The probe cursor persists across sweeps: a victim that supplied
		// work stays first in line, and empty victims are not rescanned
		// on every sweep.
		if w.tryVictim(ring[(w.cursor+i)%len(ring)]) {
			w.cursor = (w.cursor + i) % len(ring)
			return true
		}
	}
	return false
}

// tryVictim probes one victim and steals on success.
func (w *worker) tryVictim(v int) bool {
	t := w.t
	faults := t.Runtime().FaultsOn()
	w.bump("probes", 1)
	if faults && !t.Alive(v) {
		w.strike(v)
		w.bump("probes_failed", 1)
		return false
	}
	// An optimistic unlocked probe of the victim's count, revalidated
	// under the victim lock before stealing.
	m, err := upc.ReadElemErr(t, w.cnt, v)
	if err != nil {
		w.strike(v)
		w.bump("probes_failed", 1)
		return false
	}
	if m.Avail == 0 {
		w.bump("probes_failed", 1)
		return false
	}
	// upc_lock_attempt: never queue on a contended victim — another
	// thief is already draining it; move to the next one.
	if !w.locks[v].TryLock(t) {
		w.bump("probes_contended", 1)
		return false
	}
	m, err = upc.ReadElemErr(t, w.cnt, v)
	if err != nil || m.Avail == 0 {
		w.locks[v].Unlock(t)
		w.bump("probes_failed", 1)
		return false
	}
	if faults && !t.Alive(v) {
		// The victim died while the descriptor read was in flight and its
		// region has been re-rooted into the orphan pool (die is yield-free,
		// so from this check to the commit below no further death can
		// interleave); committing the stale snapshot would resurrect work.
		w.locks[v].Unlock(t)
		w.strike(v)
		w.bump("probes_failed", 1)
		return false
	}
	k := int64(w.cfg.Granularity)
	if w.cfg.Strategy == LocalRapid && m.Avail >= int64(2*w.cfg.Granularity) {
		k = m.Avail / 2 // rapid diffusion: bisect the victim's stack
	}
	if k > m.Avail {
		k = m.Avail
	}
	got := w.grow(k)
	// Take from the front: the oldest, shallowest entries whose
	// subtrees are largest.
	if faults {
		// Commit against replicated queue state: snapshot the stolen slots
		// and advance the descriptor in one yield-free step, so a victim
		// crash mid-steal can neither lose nor duplicate work. The wire
		// costs — and any faults the schedule injects on them — are charged
		// after the commit; a transfer the schedule kills degrades into a
		// failover pull at the same price.
		copy(got, w.buf.Partition(v)[m.Base:m.Base+k])
		m.Base += k
		m.Avail -= k
		w.cnt.Partition(v)[0] = m
		w.g.sharedTotal -= k
		cond := &t.Runtime().Cluster.Conduit
		t.ChargeXlate(1)
		t.P.Advance(cond.SendOverhead + cond.MsgGap + cond.Latency)
		if gerr := t.GetBytesErr(v, k*NodeBytes); gerr != nil {
			w.bump("steal_failovers", 1)
			t.FaultEvent("failover", v, k*NodeBytes)
		}
	} else {
		upc.GetT(t, w.buf, got, v, int(m.Base))
		m.Base += k
		m.Avail -= k
		upc.WriteElem(t, w.cnt, v, m)
		w.g.sharedTotal -= k
	}
	w.locks[v].Unlock(t)
	w.bump("steals", 1)
	w.bump("stolen_nodes", k)
	if w.reborn {
		// A post-revival steal: the rejoined node is pulling its share of
		// the live traversal again (the churn acceptance metric).
		w.bump("steals_rejoined", 1)
	}
	loc := "remote"
	if t.Distance(v) != topo.LevelRemote {
		w.bump("steals_local", 1)
		loc = "local"
	}
	t.P.TraceInstant("uts", "steal", loc, k, int64(v))
	return true
}

// enterIdle parks the thread until work appears or global termination is
// detected; it reports whether the run is over. Termination counts only
// the live (non-retired) workers and requires the orphan pool drained.
func (w *worker) enterIdle() bool {
	g := w.g
	g.idle++
	for {
		if w.t.Runtime().FaultsOn() && w.t.Failed() {
			// Crashed while parked: bounce back to the run loop, which
			// retires this worker via die before termination can release it
			// into the closing barrier.
			g.idle--
			return false
		}
		if g.done {
			g.idle--
			return true
		}
		live := w.t.N
		if w.t.Runtime().FaultsOn() {
			live = w.t.Runtime().LiveThreads()
		}
		if g.idle == live && g.sharedTotal == 0 && len(g.orphans) == 0 {
			g.done = true
			g.q.WakeAll()
			g.idle--
			return true
		}
		if g.sharedTotal > 0 || len(g.orphans) > 0 {
			g.idle--
			return false
		}
		g.q.Wait(w.t.P, "uts-idle")
	}
}
