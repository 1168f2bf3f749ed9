package upc

import (
	"repro/internal/fabric"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Per-operation software overheads of the intra-node shared-memory paths,
// calibrated so that PSHM and pthreads bulk copies match the manually cast
// load/store path to within the noise the paper reports in Figure 3.4.
const (
	pshmOverhead    = 250 * sim.Nanosecond // mmap-crossed segment copy setup
	pthreadOverhead = 150 * sim.Nanosecond // same-address-space copy setup
	castOverhead    = 60 * sim.Nanosecond  // plain memcpy through a cast pointer
)

// Thread is one UPC language thread's execution context (MYTHREAD). Its
// methods may only be called from the thread's own simulated process.
type Thread struct {
	rt *Runtime
	P  *sim.Proc

	ID    int // MYTHREAD
	N     int // THREADS
	Place topo.Place
	ep    *fabric.Endpoint

	allocSeq int
	xl       xlateState // shared-pointer translation accounting
}

// Runtime reports the owning runtime.
func (t *Thread) Runtime() *Runtime { return t.rt }

// OnProc returns a view of this UPC thread bound to a different simulated
// process and hardware place — the identity a sub-thread assumes when it
// issues UPC operations on behalf of its master (the thesis's
// UPC/sub-threads interoperability). The view shares the master's network
// endpoint, identity and shared-heap access; costs are charged to the
// sub-thread's process and place. Views must not be used for barriers or
// collective allocation (those belong to the master's SPMD control flow).
func (t *Thread) OnProc(p *sim.Proc, place topo.Place) *Thread {
	v := *t
	v.P = p
	v.Place = place
	return &v
}

// Now reports the current virtual time.
func (t *Thread) Now() sim.Time { return t.P.Now() }

// ---- Thread-layout queries (the Berkeley runtime extension) ----

// SameNodeThreads lists the UPC thread ids that share this thread's node —
// the information bupc_thread_distance exposes, used to build thread
// groups.
func (t *Thread) SameNodeThreads() []int {
	return topo.SameNodeRanks(t.ID, t.N, t.rt.Cfg.ThreadsPerNode)
}

// Distance reports the topological distance to another UPC thread.
func (t *Thread) Distance(other int) topo.Level {
	return topo.Distance(t.Place, t.rt.places[other])
}

// Castable reports whether other's shared segment can be privatized into a
// direct pointer on this thread (the bupc_cast extension): true for self
// always, and for same-node threads when shared memory is available
// (pthreads backend or PSHM).
func (t *Thread) Castable(other int) bool {
	if other == t.ID {
		return true
	}
	return topo.SameNode(t.Place, t.rt.places[other]) && t.rt.Cfg.sharedMem()
}

// ---- Synchronization ----

// Barrier executes upc_barrier: all THREADS threads rendezvous; the
// release is charged the dissemination cost across the nodes in use.
func (t *Thread) Barrier() {
	t.flushXlateCounters()
	end := t.P.TraceSpan("upc", "barrier")
	rt := t.rt
	ev := rt.bar.Arrive(t.ID)
	rt.syncEdge(t.ID, trace.EdgeBarArrive, "barrier", rt.bar.Seq())
	rt.releaseBarrier(t.ID)
	ev.Wait(t.P)
	end()
}

// ---- Cost-charging helpers for real computation ----
//
// Application kernels execute real Go code on the shared data and charge
// its virtual cost through these helpers (the run-real/charge-model
// pattern described in DESIGN.md).

// Compute charges seconds of core-bound work at this thread's place,
// contending with SMT siblings on the same core.
func (t *Thread) Compute(seconds float64) {
	t.rt.Cluster.Compute(t.P, t.Place, seconds)
}

// MemStream charges streaming access of the given bytes against this
// thread's socket memory controller (data homed where it was first
// touched: the thread's own socket).
func (t *Thread) MemStream(bytes int64) {
	t.rt.Cluster.MemTouch(t.P, t.Place, t.Place.Socket, bytes)
}

// MemStreamFrom charges streaming access whose backing memory lives on
// homeSocket of this node — cross-socket traffic pays the NUMA factor.
func (t *Thread) MemStreamFrom(bytes int64, homeSocket int) {
	t.rt.Cluster.MemTouch(t.P, t.Place, homeSocket, bytes)
}

// ChargeXlate charges n shared-pointer translations (the per-access
// overhead Table 3.1 shows dominating un-cast UPC shared access) in
// bulk. Hardware-assisted machines retire each decode in one cycle;
// otherwise every bulk translation pays the full software decode — the
// translation cache only serves the fine-grained element path, where
// repeated hits on one block are observable per access.
func (t *Thread) ChargeXlate(n int64) {
	if n <= 0 {
		return
	}
	t.xl.accesses += n
	if t.rt.xlate.hw {
		t.P.Advance(sim.FromSeconds(float64(n) / (t.rt.Cfg.Machine.ClockGHz * 1e9)))
		return
	}
	t.xl.misses += n
	t.P.Advance(sim.FromSeconds(float64(n) * t.rt.Cfg.Machine.PtrXlate))
}

// ---- One-sided bulk transfer plumbing ----

// Handle identifies an outstanding asynchronous one-sided operation
// (the bupc_handle_t of the Berkeley extensions). Handles come from the
// runtime's free list, and the WaitSync that completes one returns it
// there: a handle must be waited exactly once and must not be touched
// after its WaitSync, which may hand it to the next operation.
type Handle struct {
	op *fabric.NetOp
	// rec is the typed payload record of a fault-free PutAsyncT or
	// GetAsyncT (see xfer), recycled together with the handle.
	rec recycler
	// retry is armed when the op was issued on a network path under an
	// installed fault schedule (see protect): WaitSync then recovers lost
	// messages by re-issuing. Nil on fault-free runs, which keeps the
	// pooled handle three words wide.
	retry *retryCtx
}

// retryCtx is what waitRetry needs to recover a lost operation.
type retryCtx struct {
	opName  string
	peer    int
	bytes   int64
	reissue func() *fabric.NetOp
	fence   fault.Fence // issue-time membership epoch of both ends
}

// WaitSync blocks until the asynchronous operation completes
// (upc_waitsync), recovering lost messages on retry-armed handles. It
// panics with the typed error WaitSyncErr would return.
func (t *Thread) WaitSync(h *Handle) {
	if err := t.WaitSyncErr(h); err != nil {
		panic(err)
	}
}

// WaitAll completes a batch of handles.
func (t *Thread) WaitAll(hs []*Handle) {
	for _, h := range hs {
		t.WaitSync(h)
	}
}

// ApplyAsync ships a payload of the given byte volume toward dst and runs
// apply when it is delivered — an active-message-style one-sided
// operation (the mechanism behind GASNet medium AMs, used e.g. for
// software-aggregated updates). apply executes in engine context and must
// not block.
func ApplyAsync(t *Thread, dst int, bytes int64, apply func()) *Handle {
	t.P.TraceInstant("upc", "am", "", bytes, int64(dst))
	return t.handle(t.putBytes(dst, bytes, apply), nil)
}

// PutBytes performs a one-sided put of the given byte volume toward
// thread dst without carrying a payload — the model-mode transfer used by
// benchmark geometries too large to materialize. Blocking, like PutT. It
// panics with the typed error PutBytesErr would return.
func (t *Thread) PutBytes(dst int, bytes int64) {
	if err := t.PutBytesErr(dst, bytes); err != nil {
		panic(err)
	}
}

// PutBytesAsync is the non-blocking form of PutBytes.
func (t *Thread) PutBytesAsync(dst int, bytes int64) *Handle {
	h, err := t.putBytesAsyncErr(dst, bytes)
	if err != nil {
		panic(err)
	}
	return h
}

// CastPutAsync is PutBytesAsync as the manual optimization of the Figure
// 3.4 study writes it: toward another castable (same-node, shared
// memory) thread it casts the destination to a local pointer and issues
// a plain memcpy instead of upc_memput.
func (t *Thread) CastPutAsync(dst int, bytes int64) *Handle {
	if dst == t.ID || !t.Castable(dst) {
		return t.PutBytesAsync(dst, bytes)
	}
	t.traceComm("put", t.ID, dst, bytes, t.pathClass(dst))
	return t.handle(t.localCopy(t.Place, t.rt.places[dst], bytes, castOverhead, nil), nil)
}

// GetBytes performs a one-sided get of the given byte volume from thread
// src without carrying a payload. Blocking, like GetT. It panics with
// the typed error GetBytesErr would return.
func (t *Thread) GetBytes(src int, bytes int64) {
	if err := t.GetBytesErr(src, bytes); err != nil {
		panic(err)
	}
}

// pathClass reports the comm-matrix class of a transfer between this
// thread and peer. It is the one decision of the path putBytes and
// getBytes take.
func (t *Thread) pathClass(peer int) string {
	switch {
	case peer == t.ID:
		return trace.ClassSelf
	case !topo.SameNode(t.Place, t.rt.places[peer]):
		return trace.ClassNetwork
	case t.rt.Cfg.sharedMem():
		return trace.ClassPSHM
	default:
		return trace.ClassLoopback
	}
}

// traceComm emits one communication-matrix instant for a transfer whose
// data flows from thread `from` to thread `to` (see trace.CatComm). The
// packing work is skipped entirely on the untraced fast path.
func (t *Thread) traceComm(op string, from, to int, bytes int64, class string) {
	if !t.rt.Eng.Tracing() {
		return
	}
	t.P.TraceInstant(trace.CatComm, op, class, bytes,
		trace.PackEndpoints(from, to, t.rt.places[from].Node, t.rt.places[to].Node))
}

// putBytes moves bytes toward thread dst and applies the payload closure
// at completion. It takes the path pathClass names: direct shared-memory
// copy (pthreads / PSHM) on one node, the network loopback for same-node
// without shared memory, or the conduit remotely.
func (t *Thread) putBytes(dst int, bytes int64, apply func()) *fabric.NetOp {
	class := t.pathClass(dst)
	t.traceComm("put", t.ID, dst, bytes, class)
	switch class {
	case trace.ClassSelf:
		return t.localCopy(t.Place, t.rt.places[dst], bytes, castOverhead, apply)
	case trace.ClassPSHM:
		return t.localCopy(t.Place, t.rt.places[dst], bytes, t.shmOverhead(), apply)
	}
	return t.ep.PutAsync(t.P, t.rt.eps[dst], bytes, t.fence(dst).Deliver(bytes, apply))
}

// getBytes moves bytes from thread src toward this thread, applying the
// payload closure at completion, on the path pathClass names.
func (t *Thread) getBytes(src int, bytes int64, apply func()) *fabric.NetOp {
	class := t.pathClass(src)
	t.traceComm("get", src, t.ID, bytes, class)
	switch class {
	case trace.ClassSelf:
		return t.localCopy(t.rt.places[src], t.Place, bytes, castOverhead, apply)
	case trace.ClassPSHM:
		return t.localCopy(t.rt.places[src], t.Place, bytes, t.shmOverhead(), apply)
	}
	return t.ep.GetAsync(t.P, t.rt.eps[src], bytes, t.fence(src).Deliver(bytes, apply))
}

// handle takes a pooled handle for op; rec, when non-nil, is recycled
// with it.
func (t *Thread) handle(op *fabric.NetOp, rec recycler) *Handle {
	h := t.rt.handles.Get()
	h.op, h.rec = op, rec
	return h
}

// complete waits for a fault-free op's remote completion and drops the
// caller's hold on its pooled record.
func (t *Thread) complete(op *fabric.NetOp) {
	op.WaitRemote(t.P)
	op.Release()
}

// localCopy is MemCopyAsync on a placement pair the caller's path
// selection already proved same-node; the cross-node error is
// unreachable.
func (t *Thread) localCopy(from, to topo.Place, bytes int64, overhead sim.Duration, apply func()) *fabric.NetOp {
	op, err := t.rt.Cluster.MemCopyAsync(t.P, from, to, bytes, overhead, apply)
	if err != nil {
		panic(err)
	}
	return op
}

func (t *Thread) shmOverhead() sim.Duration {
	if t.rt.Cfg.Backend == Pthreads {
		return pthreadOverhead
	}
	return pshmOverhead
}

// remoteAck charges the completion acknowledgement a blocking put pays
// when the target is off-node.
func (t *Thread) remoteAck(dst int) {
	if !topo.SameNode(t.Place, t.rt.places[dst]) {
		t.P.Advance(t.rt.Cluster.Conduit.Latency)
	}
}
