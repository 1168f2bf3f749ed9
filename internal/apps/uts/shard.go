// Sharded UTS: the Section 3.3 traversal on the node-sharded parallel
// engine. Each fabric node is one sim lane hosting PerNode workers;
// same-node steals stay lane-local (PSHM-priced direct accesses on the
// lane's private cluster), while cross-node steals are probe-and-steal
// RPCs on the ShardNet whose reply caching makes them exactly-once
// under drop/duplicate/delay fault schedules. Termination is detected
// by a coordinator on lane 0: lanes post idle-transition reports on the
// reliable control plane, and when every lane has flagged idle the
// coordinator runs a status wave over the mesh — the run is over when
// every snapshot shows a fully idle lane with an empty steal region and
// the global sent/received stolen-node counts balance (an imbalance, or
// any thief caught mid-RPC, means work is still in flight and the wave
// retries). The traversal is verified against the sequential count, and
// the whole run — counters, trace stream, final clock — is
// byte-identical at any -shards worker count by the lane-invariant
// construction of sim.ShardGroup.
package uts

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/perf"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Shard RPC operations.
const (
	opSteal  = 1 // probe-and-steal; arg packs victim worker | thief worker<<16
	opStatus = 2 // termination snapshot for the lane-0 coordinator
)

const (
	// stickySweeps bounds timeout-driven idle re-sweeps: after this many
	// consecutive failed sweeps a worker parks until a local release or
	// the done broadcast wakes it, so a drained system quiesces instead
	// of probing the mesh forever (which would starve the termination
	// wave of a quiet instant).
	stickySweeps = 4
	// idleBackoff is the first re-sweep delay; it doubles per failure.
	idleBackoff = 20 * sim.Microsecond
	// coordBackoff paces status waves when lane flags say idle but the
	// ground truth disagrees (reports lag the wire).
	coordBackoff = 100 * sim.Microsecond

	reportSize = 16 // idle-transition report payload
	statusSize = 32 // status snapshot response payload
)

// shardRun is the run-wide record of one sharded traversal.
type shardRun struct {
	cfg     *Config
	g       *sim.ShardGroup
	net     *fabric.ShardNet
	bar     *fabric.ShardBarrier
	lanes   []*laneState
	perNode int
	rp      fault.RetryPolicy
	xfer    sim.Duration // transfer estimate for retransmission timeouts

	// Churn recovery (crash-with-revive schedules). orphans is the
	// lane-0 adoption pool: dying workers will their unfinished nodes to
	// lane 0 over the reliable control plane, and lane-0 workers adopt
	// them like the legacy orphan queue. quietAfter is the end of the
	// last outage window — the coordinator refuses to conclude before
	// it, so the closing barrier (whose control messages a down lane
	// would drop) never races an outage.
	churn      bool
	quietAfter sim.Time
	orphans    []Node // lane-0 context only

	// Coordinator state: lane-0 context only.
	laneIdle  []bool
	snapQuiet []bool
	snapSent  []int64
	snapRecv  []int64
	coordQ    sim.WaitQueue

	start, stop sim.Time // lane-0 context only
}

// laneState is one lane's share of the traversal: its workers, their
// steal regions, and the idle/transfer accounting the termination
// protocol snapshots. All fields are lane-local — mutated only in this
// lane's engine context (RPC applies that land here included).
type laneState struct {
	run  *shardRun
	lane int
	cl   *fabric.Cluster
	port *fabric.ShardPort

	workers []*shardWorker
	idle    int
	done    bool
	q       sim.WaitQueue

	sharedAvail int64 // nodes in this lane's steal regions
	sentNodes   int64 // nodes shipped to thieves on other lanes
	recvNodes   int64 // nodes landed from victims on other lanes

	// Churn recovery. crashed mirrors the lane's outage state (set by
	// the lane-transition observer, in this lane's context); workers
	// that notice it orphan their work and park dead until the revival
	// transition clears them. idleFlagged mirrors the last idle report
	// posted to the coordinator so dead workers can stand in for idle
	// ones without double-reporting.
	crashed     bool
	deadWorkers int
	idleFlagged bool
	reviveQ     sim.WaitQueue
}

// fullIdle reports whether every worker of the lane is parked — idle or
// dead. Dead workers hold no work (they willed it away), so for the
// termination protocol they count as idle.
func (ls *laneState) fullIdle() bool { return ls.idle+ls.deadWorkers == len(ls.workers) }

// victimRef names one steal target anywhere in the machine.
type victimRef struct {
	lane   int
	worker int
}

// shardWorker is one worker's traversal state (cf. worker in uts.go;
// the shared region is lane-local here, so the descriptor needs no
// lock — commits are yield-free and costs are charged after them).
type shardWorker struct {
	ls  *laneState
	id  int // worker index within the lane (RPC caller identity)
	gid int // global thread id
	pl  topo.Place
	p   *sim.Proc

	local []Node // private DFS stack (tail = top)
	head  int

	shared []Node // this worker's steal region
	base   int64  // region descriptor: live slots at [base, base+avail)
	avail  int64

	inbox    []Node // landing slot for one remote steal's payload
	failures int
	cursor   int  // persistent probe cursor on the remote ring
	dead     bool // parked in die() awaiting the revival transition
	reborn   bool // has rejoined at least once (tags steals_rejoined)
	count    int64
	deepest  uint32
	c        perf.Counters

	victims []int       // baseline: global gid ring
	vLocal  []victimRef // locality strategies: same-lane, probed first
	vRemote []victimRef // locality strategies: off-lane ring
}

// RunSharded executes the benchmark on the sharded engine and verifies
// the traversal against the sequential node count. Crash-with-revive
// (churn) schedules are recovered: a crashed lane's workers will their
// unfinished nodes to the lane-0 orphan pool and rejoin at the revival
// transition, and the traversal still visits every node exactly once.
// Permanent crashes and crashes of node 0 are rejected (run those on
// the legacy engine).
func RunSharded(cfg Config) (Result, error) {
	if cfg.Machine == nil {
		cfg.Machine = topo.Pyramid()
	}
	if err := cfg.Tree.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Threads <= 0 || cfg.PerNode <= 0 || cfg.Threads%cfg.PerNode != 0 {
		return Result{}, fmt.Errorf("uts: sharded run needs Threads (%d) divisible by PerNode (%d)",
			cfg.Threads, cfg.PerNode)
	}
	if cfg.Granularity <= 0 {
		cfg.Granularity = 8
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 256
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8192
	}
	if cfg.NodeCost <= 0 {
		cfg.NodeCost = defaultNodeCost
	}
	condName := cfg.ConduitName
	if condName == "" {
		condName = cfg.Machine.DefaultConduit
	}
	cond, ok := fabric.ConduitByName(condName)
	if !ok {
		return Result{}, fmt.Errorf("uts: unknown conduit %q", condName)
	}
	if cfg.Faults == nil {
		// Like the legacy runtime, a nil config schedule falls back to the
		// process default, so the CLI's -faults flag reaches sharded runs.
		cfg.Faults = fault.Default()
	}
	var quietAfter sim.Time
	if cfg.Faults != nil {
		for _, a := range cfg.Faults.Actions {
			if a.Op != fault.OpCrash {
				continue
			}
			// Churn (crash-with-revive) is recovered: dying workers will
			// their work to the lane-0 orphan pool and rejoin at the
			// revival transition. A permanent crash would strand the
			// closing barrier, and lane 0 hosts the coordinator and the
			// orphan pool, so both shapes are rejected up front.
			if a.Until == 0 {
				return Result{}, fmt.Errorf("uts: sharded crash at node %d needs until_s (permanent crashes strand the closing barrier; run them on the legacy engine)", a.Node)
			}
			if a.Node == 0 {
				return Result{}, fmt.Errorf("uts: sharded crash schedules must spare node 0 (it hosts the termination coordinator and the orphan pool)")
			}
			if t := sim.Time(sim.FromSeconds(a.Until)); t > quietAfter {
				quietAfter = t
			}
		}
	}

	lanes := cfg.Threads / cfg.PerNode
	// Like upc.Run, the config tracer is added on top of the process
	// default, so session tracing reaches sharded runs too.
	g := sim.NewShardGroup(cfg.Seed, lanes, trace.Tee(trace.Default(), cfg.Tracer))
	if err := fault.InstallShard(g, cfg.Faults); err != nil {
		return Result{}, err
	}
	net := fabric.NewShardNet(g, cond)
	parts := make([]int, lanes)
	for i := range parts {
		parts[i] = cfg.PerNode
	}
	r := &shardRun{
		cfg:       &cfg,
		g:         g,
		net:       net,
		bar:       fabric.NewShardBarrier(net, parts),
		lanes:     make([]*laneState, lanes),
		perNode:   cfg.PerNode,
		rp:        cfg.Retry.OrDefault(),
		laneIdle:  make([]bool, lanes),
		snapQuiet: make([]bool, lanes),
		snapSent:  make([]int64, lanes),
		snapRecv:  make([]int64, lanes),
	}
	r.churn = quietAfter > 0
	r.quietAfter = quietAfter
	// Timeout scale: one response worth of a rapid-diffusion steal.
	r.xfer = 2*cond.Lookahead() + sim.TransferTime(int64(cfg.Capacity/2)*NodeBytes, cond.ConnBW)

	for l := 0; l < lanes; l++ {
		r.lanes[l] = newLaneState(r, l)
	}
	if r.churn {
		// Lane transitions run in the affected lane's own context: the
		// down edge flags the lane so its workers orphan their work and
		// park; the up edge reincarnates them (counter bumps happen on
		// the workers' own stacks after they wake, not here).
		g.OnLaneTransition(func(lane int, down bool) {
			ls := r.lanes[lane]
			if down {
				ls.crashed = true
				ls.q.WakeAll() // idle workers wake to notice and die
				return
			}
			ls.crashed = false
			ls.deadWorkers = 0
			for _, w := range ls.workers {
				w.dead = false
			}
			ls.reviveQ.WakeAll()
		})
	}
	for _, ls := range r.lanes {
		for _, w := range ls.workers {
			w.spawn()
		}
	}
	g.Lane(0).Go("uts-coord", r.coordinate)

	if err := g.Run(); err != nil {
		return Result{}, err
	}

	counters := perf.Counters{}
	steals := make([]int64, cfg.Threads)
	var nodes int64
	var deepest uint32
	for _, ls := range r.lanes {
		for _, w := range ls.workers {
			counters.Merge(w.c)
			steals[w.gid] = w.c.Get("steals")
			nodes += w.count
			if w.deepest > deepest {
				deepest = w.deepest
			}
		}
	}
	wantNodes, wantDepth := cfg.Tree.CountSequential()
	if nodes != wantNodes {
		return Result{}, fmt.Errorf("uts: sharded traversal visited %d nodes, sequential counted %d",
			nodes, wantNodes)
	}
	if deepest != wantDepth {
		return Result{}, fmt.Errorf("uts: sharded max depth %d, sequential found %d", deepest, wantDepth)
	}
	elapsed := r.stop - r.start
	return Result{
		Nodes:          nodes,
		MaxDepth:       deepest,
		Elapsed:        elapsed,
		MNodesPerSec:   float64(nodes) / elapsed.Seconds() / 1e6,
		Counters:       counters,
		StealsByThread: steals,
	}, nil
}

func newLaneState(r *shardRun, lane int) *laneState {
	ls := &laneState{
		run:  r,
		lane: lane,
		cl:   fabric.LaneCluster(r.g, lane, r.cfg.Machine, r.net.Cond),
		port: r.net.Port(lane),
	}
	for id := 0; id < r.perNode; id++ {
		w := &shardWorker{
			ls:     ls,
			id:     id,
			gid:    lane*r.perNode + id,
			pl:     workerPlace(r.cfg.Machine, id),
			shared: make([]Node, r.cfg.Capacity),
			c:      perf.Counters{},
		}
		if w.gid == 0 {
			w.local = append(w.local, r.cfg.Tree.Root())
		}
		w.probeOrder()
		ls.workers = append(ls.workers, w)
	}
	ls.port.Handle(opSteal, ls.serveSteal)
	ls.port.Handle(opStatus, ls.serveStatus)
	return ls
}

// workerPlace pins worker id onto the lane's single-node cluster,
// core-blocked across sockets like the paper's bound runs.
func workerPlace(m *topo.Machine, id int) topo.Place {
	core := id % m.CoresPerNode()
	return topo.Place{Node: 0, Socket: core / m.CoresPerSocket, Core: core % m.CoresPerSocket}
}

// probeOrder builds the victim lists, mirroring the legacy traversal:
// the baseline keeps one global ring behind a persistent cursor, the
// locality strategies scan every same-lane peer first (direct accesses,
// nearly free) and reserve the cursor for the off-lane ring.
func (w *shardWorker) probeOrder() {
	r := w.ls.run
	n := r.cfg.Threads
	if r.cfg.Strategy == BaselineRR {
		for d := 1; d < n; d++ {
			w.victims = append(w.victims, (w.gid+d)%n)
		}
		return
	}
	for d := 1; d < n; d++ {
		v := (w.gid + d) % n
		ref := victimRef{lane: v / r.perNode, worker: v % r.perNode}
		if ref.lane == w.ls.lane {
			w.vLocal = append(w.vLocal, ref)
		} else {
			w.vRemote = append(w.vRemote, ref)
		}
	}
}

func (w *shardWorker) spawn() {
	r := w.ls.run
	lane, id := w.ls.lane, w.id
	r.g.Lane(lane).Go(fmt.Sprintf("uts%d.%d", lane, id), func(p *sim.Proc) {
		w.p = p
		r.bar.Wait(p, lane)
		if w.gid == 0 {
			r.start = p.Now()
		}
		w.run()
		r.bar.Wait(p, lane)
		if w.gid == 0 {
			r.stop = p.Now()
		}
	})
}

// run is the worker state machine, the sharded sibling of Figure 3.2's
// loop in uts.go.
func (w *shardWorker) run() {
	ls := w.ls
	churn := ls.run.churn
	for {
		for w.depth() > 0 {
			if churn && ls.crashed {
				w.die()
				break
			}
			w.processBatch()
			w.maybeRelease()
		}
		if ls.done {
			return
		}
		if churn && ls.crashed {
			w.die()
			continue
		}
		if w.acquireOwn() {
			continue
		}
		if ls.lane == 0 && w.acquireOrphans() {
			continue
		}
		t0 := w.p.Now()
		ok := w.stealSweep()
		w.bump("ns_sweep", int64(w.p.Now()-t0))
		if ok {
			w.failures = 0
			continue
		}
		w.failures++
		t0 = w.p.Now()
		done := w.enterIdle()
		w.bump("ns_idle", int64(w.p.Now()-t0))
		if done {
			return
		}
	}
}

func (w *shardWorker) depth() int { return len(w.local) - w.head }

// bump advances a traversal counter, mirroring it into the trace stream
// like the legacy worker.
func (w *shardWorker) bump(name string, n int64) {
	w.c.Add(name, n)
	w.p.TraceCounter("uts", name, n)
}

// processBatch pops and expands up to Batch nodes, charging one compute
// interval on this worker's core.
func (w *shardWorker) processBatch() {
	b := w.ls.run.cfg.Batch
	tree := w.ls.run.cfg.Tree
	done := 0
	for done < b && w.depth() > 0 {
		n := w.local[len(w.local)-1]
		w.local = w.local[:len(w.local)-1]
		w.count++
		done++
		if n.Depth > w.deepest {
			w.deepest = n.Depth
		}
		for i := tree.NumChildren(n) - 1; i >= 0; i-- {
			w.local = append(w.local, Child(n, i))
		}
	}
	w.bump("nodes", int64(done))
	w.ls.cl.Compute(w.p, w.pl, float64(done)*w.ls.run.cfg.NodeCost)
}

// maybeRelease moves surplus bottom-of-stack work into this worker's
// steal region. The descriptor commit is yield-free; memory costs are
// charged after it, so interleaved thieves never see a half-applied
// move.
func (w *shardWorker) maybeRelease() {
	cfg := w.ls.run.cfg
	chunk := cfg.Granularity
	for w.depth() > 2*chunk {
		var shifted int64
		if int(w.base+w.avail)+chunk > cfg.Capacity {
			if int(w.avail)+chunk > cfg.Capacity {
				return // region genuinely full
			}
			copy(w.shared, w.shared[w.base:w.base+w.avail])
			shifted = w.avail
			w.base = 0
		}
		copy(w.shared[w.base+w.avail:], w.local[w.head:w.head+chunk])
		w.head += chunk
		w.avail += int64(chunk)
		w.ls.sharedAvail += int64(chunk)
		w.bump("releases", 1)
		w.ls.q.WakeAll() // idle lane peers may find work now
		w.compact()
		if shifted > 0 {
			w.charge(2 * shifted * NodeBytes)
		}
		w.charge(int64(chunk) * NodeBytes)
	}
}

// charge models a streaming memory move of size bytes at this worker's
// place.
func (w *shardWorker) charge(size int64) {
	_ = w.ls.cl.MemCopy(w.p, w.pl, w.pl, size, 0) // same-node by construction
}

// compact drops the released prefix once it dominates the backing slice.
func (w *shardWorker) compact() {
	if w.head > 1024 && w.head*2 > len(w.local) {
		w.local = append(w.local[:0:0], w.local[w.head:]...)
		w.head = 0
	}
}

// acquireOwn pulls work back from this worker's own steal region.
func (w *shardWorker) acquireOwn() bool {
	if w.avail == 0 {
		return false
	}
	k := w.avail
	if lim := int64(2 * w.ls.run.cfg.Granularity); k > lim {
		k = lim
	}
	w.local = append(w.local, w.shared[w.base+w.avail-k:w.base+w.avail]...)
	w.avail -= k
	w.ls.sharedAvail -= k
	w.charge(k * NodeBytes)
	return true
}

// die is the sharded failover: the worker sweeps everything it holds —
// private stack, steal region, a landed-but-unconsumed steal payload —
// into a will, ships the will to the lane-0 orphan pool on the reliable
// control plane (a down lane's NIC still drains already-committed
// sends; only inbound traffic dies with the lane), and parks dead until
// the revival transition. Shipped nodes are booked sent-here/
// received-at-lane-0 so the termination wave keeps balancing. On wake
// it rejoins: probe state resets and subsequent steals are tagged
// steals_rejoined.
func (w *shardWorker) die() {
	ls := w.ls
	r := ls.run
	will := append([]Node(nil), w.local[w.head:]...)
	will = append(will, w.shared[w.base:w.base+w.avail]...)
	will = append(will, w.inbox...)
	w.local, w.head = w.local[:0], 0
	ls.sharedAvail -= w.avail
	w.base, w.avail = 0, 0
	w.inbox = nil
	w.bump("failovers", 1)
	w.p.TraceInstant("uts", "failover", "shard", int64(len(will)), int64(w.gid))
	w.dead = true
	ls.deadWorkers++
	if k := int64(len(will)); k > 0 {
		ls.sentNodes += k
		ls0 := r.lanes[0]
		ls.port.Post(w.p, 0, k*NodeBytes, func() {
			r.orphans = append(r.orphans, will...)
			ls0.recvNodes += k
			ls0.q.WakeAll() // idle lane-0 workers can adopt now
		})
	}
	if ls.fullIdle() && !ls.idleFlagged {
		ls.reportIdle(w.p, true)
	}
	for w.dead {
		ls.reviveQ.Wait(w.p, "uts-revive")
	}
	// Revived: the first worker awake retracts the lane's idle report.
	if ls.idleFlagged {
		ls.reportIdle(w.p, false)
	}
	w.reborn = true
	w.failures = 0
	w.cursor = 0
	w.bump("rejoins", 1)
	w.p.TraceInstant("uts", "rejoin", "shard", 0, int64(w.gid))
}

// acquireOrphans adopts a chunk of the lane-0 orphan pool, the sharded
// analogue of the legacy orphan queue (lane-0 workers only).
func (w *shardWorker) acquireOrphans() bool {
	r := w.ls.run
	if len(r.orphans) == 0 {
		return false
	}
	k := 2 * r.cfg.Granularity
	if k > len(r.orphans) {
		k = len(r.orphans)
	}
	w.local = append(w.local, r.orphans[:k]...)
	r.orphans = r.orphans[k:]
	w.charge(int64(k) * NodeBytes)
	w.bump("orphans_taken", int64(k))
	return true
}

// takeFront removes up to one strategy-sized chunk from the front of
// victim's region — the oldest, shallowest entries whose subtrees are
// largest — and returns a private copy. Yield-free; runs in the
// victim's lane context (a local thief or the steal RPC handler).
func (ls *laneState) takeFront(victim *shardWorker) []Node {
	cfg := ls.run.cfg
	if victim.avail == 0 {
		return nil
	}
	k := int64(cfg.Granularity)
	if cfg.Strategy == LocalRapid && victim.avail >= int64(2*cfg.Granularity) {
		k = victim.avail / 2 // rapid diffusion: bisect the victim's stack
	}
	if k > victim.avail {
		k = victim.avail
	}
	got := append([]Node(nil), victim.shared[victim.base:victim.base+k]...)
	victim.base += k
	victim.avail -= k
	ls.sharedAvail -= k
	return got
}

// stealSweep probes victims in strategy order; it reports whether any
// work was obtained.
func (w *shardWorker) stealSweep() bool {
	cfg := w.ls.run.cfg
	if cfg.Strategy == BaselineRR {
		perNode := w.ls.run.perNode
		for i := 0; i < len(w.victims); i++ {
			gid := w.victims[(w.cursor+i)%len(w.victims)]
			if w.tryVictim(victimRef{lane: gid / perNode, worker: gid % perNode}) {
				w.cursor = (w.cursor + i) % len(w.victims)
				return true
			}
		}
		return false
	}
	for _, v := range w.vLocal {
		if w.tryVictim(v) {
			return true
		}
	}
	for i := 0; i < len(w.vRemote); i++ {
		if w.tryVictim(w.vRemote[(w.cursor+i)%len(w.vRemote)]) {
			w.cursor = (w.cursor + i) % len(w.vRemote)
			return true
		}
	}
	return false
}

func (w *shardWorker) tryVictim(v victimRef) bool {
	if v.lane == w.ls.lane {
		return w.tryLocal(v.worker)
	}
	return w.tryRemote(v)
}

// tryLocal steals from a same-lane peer through direct (PSHM-priced)
// access: commit first, charge the memory move after.
func (w *shardWorker) tryLocal(worker int) bool {
	ls := w.ls
	w.bump("probes", 1)
	got := ls.takeFront(ls.workers[worker])
	if got == nil {
		w.bump("probes_failed", 1)
		return false
	}
	k := int64(len(got))
	victim := ls.workers[worker]
	_ = ls.cl.MemCopy(w.p, victim.pl, w.pl, k*NodeBytes, 0)
	w.local = append(w.local, got...)
	w.bump("steals", 1)
	w.bump("steals_local", 1)
	w.bump("stolen_nodes", k)
	if w.reborn {
		w.bump("steals_rejoined", 1)
	}
	w.p.TraceInstant("uts", "steal", "local", k, int64(victim.gid))
	return true
}

// tryRemote is one probe-and-steal RPC: the victim-lane handler commits
// the take, the reply carries the nodes, and the reply cache makes the
// whole exchange exactly-once under lossy schedules.
func (w *shardWorker) tryRemote(v victimRef) bool {
	ls := w.ls
	r := ls.run
	if r.churn && r.g.LaneDown(v.lane, w.p.Now()) {
		// The victim's lane is inside an outage window: its workers have
		// willed their work away, so the probe cannot succeed — and the
		// RPC would stall here until the reincarnation. Count it as a
		// failed probe and move down the ring.
		w.bump("probes", 1)
		w.bump("probes_failed", 1)
		return false
	}
	w.bump("probes", 1)
	w.inbox = nil
	arg := int64(v.worker) | int64(w.id)<<16
	ls.port.CallRetry(w.p, w.id, v.lane, opSteal, arg, reportSize,
		func(try int) sim.Duration { return r.rp.AttemptTimeout(try, r.xfer) })
	got := w.inbox
	w.inbox = nil
	if len(got) == 0 {
		w.bump("probes_failed", 1)
		return false
	}
	w.local = append(w.local, got...)
	k := int64(len(got))
	w.bump("steals", 1)
	w.bump("stolen_nodes", k)
	if w.reborn {
		w.bump("steals_rejoined", 1)
	}
	w.p.TraceInstant("uts", "steal", "remote", k, int64(v.lane*r.perNode+v.worker))
	return true
}

// serveSteal handles one steal RPC in this (victim) lane's context. The
// sent-node count is booked at the commit; the matching received count
// is booked by the apply closure at the thief's lane, and the
// termination wave declares done only when the two balance.
func (ls *laneState) serveSteal(src int, arg int64) (int64, func()) {
	got := ls.takeFront(ls.workers[int(arg&0xffff)])
	if got == nil {
		return reportSize, nil
	}
	k := int64(len(got))
	ls.sentNodes += k
	thief := int(arg >> 16)
	r := ls.run
	return reportSize + k*NodeBytes, func() {
		tl := r.lanes[src]
		tl.workers[thief].inbox = got
		tl.recvNodes += k
	}
}

// serveStatus snapshots this lane for the termination wave. A down lane
// cannot serve (inbound requests die with it), so a wave that overlaps
// an outage simply stalls in CallRetry until the lane reincarnates —
// the coordinator cannot conclude past a crashed lane.
func (ls *laneState) serveStatus(src int, arg int64) (int64, func()) {
	quiet := ls.fullIdle() && ls.sharedAvail == 0
	sent, recv := ls.sentNodes, ls.recvNodes
	r, lane := ls.run, ls.lane
	return statusSize, func() {
		r.snapQuiet[lane] = quiet
		r.snapSent[lane] = sent
		r.snapRecv[lane] = recv
	}
}

// enterIdle parks the worker until work appears locally, a re-sweep
// timer fires (bounded by stickySweeps), or the done broadcast lands;
// it reports whether the run is over. Idle-transition reports keep the
// lane-0 coordinator's flags current.
func (w *shardWorker) enterIdle() bool {
	ls := w.ls
	ls.idle++
	if ls.fullIdle() && !ls.idleFlagged {
		ls.reportIdle(w.p, true)
	}
	for {
		if ls.done {
			ls.idle--
			return true
		}
		if ls.crashed {
			w.leaveIdle() // the run loop notices and dies
			return false
		}
		if ls.sharedAvail > 0 || (ls.lane == 0 && len(ls.run.orphans) > 0) {
			w.leaveIdle()
			return false
		}
		if w.failures <= stickySweeps {
			backoff := idleBackoff << uint(min(w.failures, 7))
			if ls.q.WaitTimeout(w.p, "uts-idle", backoff) {
				continue // woken: recheck done / local work
			}
			w.leaveIdle() // timed out: go re-sweep the mesh
			return false
		}
		ls.q.Wait(w.p, "uts-idle")
	}
}

func (w *shardWorker) leaveIdle() {
	ls := w.ls
	if ls.fullIdle() && ls.idleFlagged {
		ls.reportIdle(w.p, false)
	}
	ls.idle--
}

// reportIdle posts this lane's idle transition to the coordinator.
// Posts from one lane arrive in order, so the coordinator's flag always
// reflects the lane's latest transition. idleFlagged mirrors the last
// report synchronously, so concurrent wakers post each edge once.
func (ls *laneState) reportIdle(p *sim.Proc, idle bool) {
	r := ls.run
	lane := ls.lane
	ls.idleFlagged = idle
	ls.port.Post(p, 0, reportSize, func() {
		r.laneIdle[lane] = idle
		if idle && r.allIdleFlags() {
			r.coordQ.WakeAll()
		}
	})
}

func (r *shardRun) allIdleFlags() bool {
	for _, f := range r.laneIdle {
		if !f {
			return false
		}
	}
	return true
}

// coordinate is the lane-0 termination detector. A status wave is
// conclusive when every lane snapshot is quiet and the sent/received
// stolen-node totals balance: any in-flight transfer either leaves a
// thief non-idle at its snapshot or shows up as sent > received, so a
// balanced all-quiet wave proves no work exists anywhere.
func (r *shardRun) coordinate(p *sim.Proc) {
	pt := r.net.Port(0)
	to := func(try int) sim.Duration { return r.rp.AttemptTimeout(try, r.xfer) }
	for {
		for !r.allIdleFlags() {
			r.coordQ.Wait(p, "uts-coord")
		}
		ls0 := r.lanes[0]
		r.snapQuiet[0] = ls0.fullIdle() && ls0.sharedAvail == 0 && len(r.orphans) == 0
		r.snapSent[0], r.snapRecv[0] = ls0.sentNodes, ls0.recvNodes
		for l := 1; l < len(r.lanes); l++ {
			pt.CallRetry(p, r.perNode, l, opStatus, 0, reportSize, to)
		}
		quiet := true
		var sent, recv int64
		for l := range r.lanes {
			quiet = quiet && r.snapQuiet[l]
			sent += r.snapSent[l]
			recv += r.snapRecv[l]
		}
		if quiet && sent == recv && p.Now() < r.quietAfter {
			// All drained, but an outage window is still open: a lane
			// due to crash would drop the done broadcast and the closing
			// barrier's control traffic. Hold the verdict until the last
			// revival has passed.
			p.Advance(coordBackoff)
			continue
		}
		if quiet && sent == recv {
			for l := 1; l < len(r.lanes); l++ {
				ls := r.lanes[l]
				pt.Post(p, l, reportSize, func() {
					ls.done = true
					ls.q.WakeAll()
				})
			}
			ls0.done = true
			ls0.q.WakeAll()
			return
		}
		p.Advance(coordBackoff) // flags lag the ground truth: re-wave shortly
	}
}
