// Package mpi implements the two-sided message-passing baseline the
// thesis compares against (OpenMPI + Fortran NAS FT): barriers,
// reductions, and an all-to-all collective run as a pairwise exchange
// over sm within a node and the conduit across, on the same simulated
// fabric.
package mpi

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// smOverhead is the per-message cost of the shared-memory (sm) transport
// used for intra-node sends.
const smOverhead = 200 * sim.Nanosecond

// Config describes one MPI execution. Ranks talk over the machine's
// DefaultConduit and are bound round-robin across sockets
// (topo.BindSocketRR).
type Config struct {
	Machine      *topo.Machine
	Ranks        int
	RanksPerNode int
	Seed         int64
	// Tracer, when non-nil, receives the run's trace events in addition to
	// any process-default tracer (see internal/trace).
	Tracer trace.Tracer
	// Faults, when non-nil, overrides the process-default fault schedule
	// (see internal/fault). The library then pulls lost messages back
	// through fault.Await's deadline ladder and surfaces unrecoverable
	// failures as typed errors.
	Faults *fault.Schedule
}

// World is the per-execution state shared by all ranks.
type World struct {
	Cfg     Config
	Eng     *sim.Engine
	Cluster *fabric.Cluster

	comms  []*Comm
	places []topo.Place
	eps    []*fabric.Endpoint

	inbox   [][]*message // per destination rank
	rxQ     []sim.WaitQueue
	nodes   int
	barCost sim.Duration
	bar     *sim.Rendezvous
	coll    collective

	inj *fault.Injector
	// edges is true when the installed tracer opted into completion-edge
	// instants (trace.EdgeObserver), cached at construction.
	edges bool
}

type message struct {
	src     int
	bytes   int64
	data    []byte
	arrived *sim.Event
}

// collective is the world's collective rendezvous: every rank's k-th
// collective call joins generation k, and the last arrival combines the
// contributions.
type collective struct {
	rv     *sim.Rendezvous
	vals   []any // this generation's contributions, by rank
	result any
}

// Stats summarizes a completed run.
type Stats struct {
	Elapsed sim.Duration
	Ranks   int
}

// Comm is one rank's communicator handle (MPI_COMM_WORLD view).
type Comm struct {
	w     *World
	P     *sim.Proc
	Rank  int
	Size  int
	Place topo.Place
	ep    *fabric.Endpoint
}

// Run executes main on every rank and returns run statistics.
func Run(cfg Config, main func(c *Comm)) (Stats, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return Stats{}, err
	}
	for _, c := range w.comms {
		c := c
		w.Eng.Go(fmt.Sprintf("mpi%d", c.Rank), func(p *sim.Proc) {
			c.P = p
			main(c)
		})
	}
	if err := w.Eng.Run(); err != nil {
		return Stats{}, err
	}
	return Stats{Elapsed: w.Eng.Now(), Ranks: cfg.Ranks}, nil
}

// NewWorld builds the world without launching ranks.
func NewWorld(cfg Config) (*World, error) {
	if cfg.Machine == nil {
		return nil, fmt.Errorf("mpi: Config.Machine is required")
	}
	if cfg.Ranks <= 0 || cfg.RanksPerNode <= 0 {
		return nil, fmt.Errorf("mpi: Ranks=%d RanksPerNode=%d", cfg.Ranks, cfg.RanksPerNode)
	}
	cond, ok := fabric.ConduitByName(cfg.Machine.DefaultConduit)
	if !ok {
		return nil, fmt.Errorf("mpi: unknown conduit %q", cfg.Machine.DefaultConduit)
	}
	places, err := cfg.Machine.Layout(cfg.Ranks, cfg.RanksPerNode, topo.BindSocketRR)
	if err != nil {
		return nil, err
	}
	eng := sim.New(cfg.Seed)
	if cfg.Tracer != nil {
		cfg.Tracer.Emit(trace.Event{Kind: trace.KRunBegin, Proc: trace.EngineProc,
			Cat: "sim", Name: "run", Arg: cfg.Seed})
		eng.SetTracer(trace.Tee(eng.Tracer(), cfg.Tracer))
	}
	cl := fabric.NewCluster(eng, cfg.Machine, cond)
	w := &World{
		Cfg:     cfg,
		Eng:     eng,
		Cluster: cl,
		places:  places,
		eps:     make([]*fabric.Endpoint, cfg.Ranks),
		inbox:   make([][]*message, cfg.Ranks),
		rxQ:     make([]sim.WaitQueue, cfg.Ranks),
	}
	w.edges = trace.WantsEdge(eng.Tracer())
	w.nodes = (cfg.Ranks + cfg.RanksPerNode - 1) / cfg.RanksPerNode
	w.barCost = cl.BarrierCost(w.nodes)
	w.bar = sim.NewRendezvous(cfg.Ranks, nil)
	w.coll = collective{rv: sim.NewRendezvous(cfg.Ranks, nil), vals: make([]any, cfg.Ranks)}
	for i := range w.eps {
		w.eps[i] = cl.MustEndpoint(places[i].Node)
	}
	w.comms = make([]*Comm, cfg.Ranks)
	for i := range w.comms {
		w.comms[i] = &Comm{w: w, Rank: i, Size: cfg.Ranks, Place: places[i], ep: w.eps[i]}
	}
	sched := cfg.Faults
	if sched == nil {
		sched = fault.Default()
	}
	inj, err := fault.Install(cl, sched)
	if err != nil {
		return nil, err
	}
	w.inj = inj
	return w, nil
}

// World reports the communicator's owning world.
func (c *Comm) World() *World { return c.w }

// transfer moves bytes from c toward dst through the transport the MPI
// library would choose: shared memory within a node, the conduit across.
func (c *Comm) transfer(dst int, bytes int64, apply func()) *fabric.NetOp {
	w := c.w
	dstPlace := w.places[dst]
	sameNode := topo.SameNode(c.Place, dstPlace)
	if w.Eng.Tracing() {
		// One comm-matrix instant per send: the sm transport classifies as
		// shared memory, everything else as conduit traffic (an MPI rank
		// never takes the network loopback — the library always picks sm
		// within a node).
		class := trace.ClassNetwork
		switch {
		case dst == c.Rank:
			class = trace.ClassSelf
		case sameNode:
			class = trace.ClassPSHM
		}
		c.P.TraceInstant(trace.CatComm, "send", class, bytes,
			trace.PackEndpoints(c.Rank, dst, c.Place.Node, dstPlace.Node))
	}
	if sameNode {
		op, err := w.Cluster.MemCopyAsync(c.P, c.Place, dstPlace, bytes, smOverhead, apply)
		if err != nil {
			panic(err) // unreachable: sameNode just checked
		}
		return op
	}
	return c.ep.PutAsync(c.P, w.eps[dst], bytes, c.fence(dst).Deliver(bytes, apply))
}

// post enqueues a matching record of the given byte volume at the
// destination and starts its transfer.
func (c *Comm) post(dst int, bytes int64, data []byte) *fabric.NetOp {
	msg := &message{src: c.Rank, bytes: bytes, data: data, arrived: &sim.Event{}}
	c.w.inbox[dst] = append(c.w.inbox[dst], msg)
	c.w.rxQ[dst].WakeAll()
	return c.transfer(dst, bytes, msg.arrived.Fire)
}

// sendrecv posts a buffer the caller hands over to dst, receives from
// src, then waits for its own payload to leave the source buffer: MPI's
// combined send-receive, deadlock-free because the post precedes the
// receive. Nil data sends the byte volume payload-free (model mode). It
// panics with recv's typed error when a fault schedule makes the receive
// unrecoverable.
func (c *Comm) sendrecv(dst int, bytes int64, data []byte, src int) []byte {
	op := c.post(dst, bytes, data)
	in, err := c.recv(src)
	if err != nil {
		panic(err)
	}
	op.WaitLocal(c.P)
	return in
}

// match dequeues the oldest inbox record from src, blocking until one is
// posted.
func (c *Comm) match(src int) *message {
	w := c.w
	waited := false
	for {
		if m := c.matchNow(src); m != nil {
			if w.edges && waited {
				// Late-sender edge: the receiver was parked when the post
				// finally arrived; blame the sender.
				c.P.TraceInstant(trace.CatEdge, trace.EdgeMsgMatch, "", m.bytes,
					trace.PackEndpoints(m.src, c.Rank,
						w.places[m.src].Node, c.Place.Node))
			}
			return m
		}
		waited = true
		w.rxQ[c.Rank].Wait(c.P, "mpi-recv")
	}
}

// matchNow dequeues the oldest inbox record from src without blocking.
func (c *Comm) matchNow(src int) *message {
	w := c.w
	for i, m := range w.inbox[c.Rank] {
		if m.src != src {
			continue
		}
		w.inbox[c.Rank] = append(w.inbox[c.Rank][:i], w.inbox[c.Rank][i+1:]...)
		return m
	}
	return nil
}

// Barrier synchronizes all ranks (MPI_Barrier). Under an installed fault
// schedule it panics with the typed error barrierErr would return
// instead of hanging on a crashed rank.
func (c *Comm) Barrier() {
	if err := c.barrierErr(); err != nil {
		panic(err)
	}
}

// notifyBarrier registers arrival at the world barrier and returns the
// generation's release event; the last arrival books the release.
func (c *Comm) notifyBarrier() *sim.Event {
	b := c.w.bar
	ev := b.Arrive(c.Rank)
	if b.Complete() {
		b.Release(c.w.Eng, c.w.barCost)
	}
	return ev
}

// AllreduceSum sums one float64 per rank on every rank (MPI_Allreduce).
func (c *Comm) AllreduceSum(v float64) float64 {
	r, err := c.collectiveErr(v, func(vals []any) any {
		s := 0.0
		for _, x := range vals {
			s += x.(float64)
		}
		return s
	})
	if err != nil {
		panic(err)
	}
	return r.(float64)
}

// collectiveErr joins the rank's next collective generation and waits
// for its release — through the failure-detecting deadline ladder when
// a fault schedule is installed.
func (c *Comm) collectiveErr(val any, combine func([]any) any) (any, error) {
	w := c.w
	col := &w.coll
	col.vals[c.Rank] = val
	ev := col.rv.Arrive(c.Rank)
	if col.rv.Complete() {
		col.result = combine(col.vals)
		col.rv.Release(w.Eng, w.barCost)
	}
	if !w.faultsOn() {
		ev.Wait(c.P)
		return col.result, nil
	}
	if w.Cluster.NodeDown(c.Place.Node) {
		return nil, c.commError("allreduce", c.Rank, 0, fault.ErrNodeDown)
	}
	if err := c.releaseWait("allreduce", ev); err != nil {
		return nil, err
	}
	return col.result, nil
}
