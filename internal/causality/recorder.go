// Package causality is the post-mortem wait-state and critical-path
// analysis engine (the Scalasca-style layer of DESIGN §14). A Recorder
// rides a trace session's serialized, replay-ordered event stream —
// the same stream the digest and the metrics manifest consume, which
// is what makes the analysis byte-identical at any -parallel worker
// count — and reconstructs the happens-before graph from the
// completion-edge instants the model layers emit (barrier and
// collective generations, lock handoffs, fabric deliveries,
// fault retries, message matches; see trace.CatEdge). From the graph
// it computes, per run:
//
//   - wait-state classification: every park interval that is a real
//     wait (not modeled work) is classified by its innermost open span
//     and park reason — late-arriver at barriers and collectives, lock
//     contention, PSHM/network communication waits, fault-retry
//     stalls, scheduler idling — with root-cause blame walked back
//     along the graph to the delaying thread;
//   - the critical path of the whole run: a backward walk from the
//     final event that jumps from each waiter to the thread whose
//     arrival released it, partitioning the makespan exactly into
//     compute / PSHM comm / network comm / fault-retry / idle
//     segments, rolled up per thread and per node;
//   - per-phase imbalance: max/avg wait ratios and blame concentration
//     per barrier/collective site.
//
// The package sits on internal/trace alone, so metrics can embed its
// Export in the manifest without an import cycle.
package causality

import "repro/internal/trace"

// Wait classes assigned by the recorder.
const (
	ClassBarrier    = "barrier"
	ClassCollective = "collective"
	ClassLock       = "lock"
	ClassCommSelf   = "comm-self"
	ClassCommPSHM   = "comm-pshm"
	ClassCommLoop   = "comm-loopback"
	ClassCommNet    = "comm-network"
	ClassFaultRetry = "fault-retry"
	ClassRejoin     = "rejoin"
	ClassLateSender = "late-sender"
	ClassIdle       = "idle"
	ClassOther      = "other"
)

// class is a wait class's code, an index into classNames. Waits carry
// the code; the names appear only in the export.
type class uint8

const (
	classOther class = iota // the zero code: no cue classified the wait
	classBarrier
	classCollective
	classLock
	classCommSelf
	classCommPSHM
	classCommLoop
	classCommNet
	classFaultRetry
	classRejoin
	classLateSender
	classIdle
	numClasses
)

var classNames = [numClasses]string{
	classOther:      ClassOther,
	classBarrier:    ClassBarrier,
	classCollective: ClassCollective,
	classLock:       ClassLock,
	classCommSelf:   ClassCommSelf,
	classCommPSHM:   ClassCommPSHM,
	classCommLoop:   ClassCommLoop,
	classCommNet:    ClassCommNet,
	classFaultRetry: ClassFaultRetry,
	classRejoin:     ClassRejoin,
	classLateSender: ClassLateSender,
	classIdle:       ClassIdle,
}

// genKey identifies one barrier or collective generation within a run.
type genKey struct {
	site string // "barrier" | "coll"
	seq  int64
}

// genInfo is one entry of a run's generation table: the generation and
// what its release edge recorded, the thread whose arrival (or
// retirement) released every waiter, and when.
type genInfo struct {
	key          genKey
	releaser     int32 // thread id; -1 until the release edge arrives
	releaserNode int32
	releaseTime  int64
}

// spanRef is one open span on a proc's stack.
type spanRef struct {
	cat, name string
}

// wait is one completed wait instance: a park interval with a real
// wait reason, classified and (where the graph allows) blamed. A run
// holds one per wait until it closes, so the record is kept to 32
// bytes: the generation is an index into the run's table and the class
// a code.
type wait struct {
	begin, end   int64
	blamedThread int32 // thread id of the delaying thread, -1 unknown
	blamedNode   int32
	gen          int32 // index into run.gens, -1 none
	class        class
	timeout      bool // parked as "event-timeout"
}

// blame names the thread (and its node) that delayed the wait.
func (w *wait) blame(thread, node int) {
	w.blamedThread, w.blamedNode = int32(thread), int32(node)
}

// lastComm is the most recent communication-matrix instant a proc
// emitted, used to classify the event wait that typically follows it.
type lastComm struct {
	name  string // "put" | "get" | "send" | "am" | fault names
	class string // trace.Class*
	pack  int64
	time  int64
	valid bool
}

// procState is the recorder's streaming state for one process.
type procState struct {
	id         int32
	name       string
	thread     int // logical thread id learned from edges, -1 unknown
	node       int // -1 unknown
	spans      []spanRef
	parked     bool
	parkTime   int64
	parkReason string
	lastResume int64
	comm       lastComm
	waits      []wait // completed, ascending by end time
	exited     bool
	exitTime   int64
	pendingGen int32 // armed by the latest bar-arrive edge, -1 none
}

// run accumulates one engine's stream.
type run struct {
	seed    int64
	maxTime int64
	// procs indexes states by proc id + 1, so EngineProc takes slot 0;
	// the engine numbers procs densely from 0.
	procs      []*procState
	order      []int32          // proc ids in spawn order
	gens       []genInfo        // generation table, in first-sight order
	genIndex   map[genKey]int32 // generation -> index into gens
	threadProc map[int]int32    // logical thread id -> proc id
	delivers   int64
	deliverB   int64
	edges      int64
}

func newRun(seed int64) *run {
	return &run{
		seed:       seed,
		genIndex:   map[genKey]int32{},
		threadProc: map[int]int32{},
	}
}

// gen returns the table index of a generation, adding it on first sight.
func (r *run) gen(site string, seq int64) int32 {
	k := genKey{site: site, seq: seq}
	i, ok := r.genIndex[k]
	if !ok {
		i = int32(len(r.gens))
		r.gens = append(r.gens, genInfo{key: k, releaser: -1, releaserNode: -1})
		r.genIndex[k] = i
	}
	return i
}

// proc returns id's state, creating it on first sight.
func (r *run) proc(id int32) *procState {
	i := int(id) + 1
	if i < len(r.procs) {
		if ps := r.procs[i]; ps != nil {
			return ps
		}
	} else {
		r.procs = append(r.procs, make([]*procState, i+1-len(r.procs))...)
	}
	ps := &procState{id: id, thread: -1, node: -1, pendingGen: -1}
	r.procs[i] = ps
	r.order = append(r.order, id)
	return ps
}

// lookup returns id's state, or nil if the run never saw id.
func (r *run) lookup(id int32) *procState {
	if i := int(id) + 1; i >= 0 && i < len(r.procs) {
		return r.procs[i]
	}
	return nil
}

// learn records the thread identity an edge proved for a proc.
func (r *run) learn(ps *procState, thread, node int) {
	if ps.id < 0 {
		return // engine-context edges carry no proc identity
	}
	ps.thread, ps.node = thread, node
	r.threadProc[thread] = ps.id
}

// Recorder consumes a trace stream and accumulates the raw material of
// the run in progress: per-proc waits, generations and thread identities.
// The KRunBegin that opens the next run closes it: the recorder analyzes
// the closed run on the spot (analyze.go, export.go) and keeps only its
// RunAnalysis and its critical-path stacks, so memory holds one run's
// raw state however many runs the stream carries. It opts into
// completion-edge events (trace.EdgeObserver), so attaching one to a
// session enables the emitters for every engine built afterwards.
type Recorder struct {
	runs   []RunAnalysis    // closed runs, in stream order
	folded map[string]int64 // critical-path ns by "category;thread", over closed runs
	cur    *run
	exp    *Export
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// ObserveEdge opts the recorder into completion-edge events.
func (rec *Recorder) ObserveEdge() bool { return true }

// Emit consumes one event.
func (rec *Recorder) Emit(e trace.Event) {
	if e.Kind == trace.KRunBegin {
		rec.endRun()
		rec.cur = newRun(e.Arg)
		return
	}
	r := rec.cur
	if r == nil {
		// Events before any run boundary (a bare engine without sim.New's
		// KRunBegin) land in an implicit run.
		r = newRun(0)
		rec.cur = r
	}
	if e.Time > r.maxTime {
		r.maxTime = e.Time
	}
	switch e.Kind {
	case trace.KProcSpawn:
		ps := r.proc(e.Proc)
		ps.name = e.Name
		ps.lastResume = e.Time
	case trace.KProcPark:
		ps := r.proc(e.Proc)
		ps.parked = true
		ps.parkTime = e.Time
		ps.parkReason = e.Aux
	case trace.KProcUnpark:
		ps := r.proc(e.Proc)
		if ps.parked {
			ps.parked = false
			ps.lastResume = e.Time
			r.closeWait(ps, e.Time)
		}
	case trace.KProcExit:
		ps := r.proc(e.Proc)
		ps.exited = true
		ps.exitTime = e.Time
	case trace.KSpanBegin:
		ps := r.proc(e.Proc)
		ps.spans = append(ps.spans, spanRef{cat: e.Cat, name: e.Name})
	case trace.KSpanEnd:
		ps := r.proc(e.Proc)
		if n := len(ps.spans); n > 0 {
			ps.spans = ps.spans[:n-1]
		}
	case trace.KInstant:
		switch e.Cat {
		case trace.CatEdge:
			r.edge(e)
		case trace.CatComm:
			r.comm(e)
		}
	}
}

// edge consumes one completion-edge instant.
func (r *run) edge(e trace.Event) {
	r.edges++
	switch e.Name {
	case trace.EdgeBarArrive:
		ps := r.proc(e.Proc)
		th, _, node, _ := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, th, node)
		ps.pendingGen = r.gen(e.Aux, e.Arg)
	case trace.EdgeBarRelease:
		ps := r.proc(e.Proc)
		th, _, node, _ := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, th, node)
		g := &r.gens[r.gen(e.Aux, e.Arg)]
		g.releaser, g.releaserNode, g.releaseTime = int32(th), int32(node), e.Time
	case trace.EdgeLockGrant:
		ps := r.proc(e.Proc)
		prev, acq, prevNode, acqNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, acq, acqNode)
		// The grant edge follows the contended wait that just ended on
		// this proc: attach the handoff blame to it.
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = classLock
			w.blame(prev, prevNode)
		}
	case trace.EdgeRetry:
		ps := r.proc(e.Proc)
		self, peer, selfNode, peerNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, self, selfNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = classFaultRetry
			w.blame(peer, peerNode)
		}
	case trace.EdgeMsgMatch:
		ps := r.proc(e.Proc)
		src, dst, srcNode, dstNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, dst, dstNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = classLateSender
			w.blame(src, srcNode)
		}
	case trace.EdgeRejoin:
		// A reincarnated thread re-entered membership: the revival park
		// that preceded this edge is recovery time, blamed on the edge's
		// source (the rejoiner itself: rejoin restores no peer state).
		ps := r.proc(e.Proc)
		src, rejoiner, srcNode, rejoinerNode := trace.UnpackEndpoints(e.Arg2)
		r.learn(ps, rejoiner, rejoinerNode)
		if w := ps.lastWait(); w != nil && w.end <= e.Time {
			w.class = classRejoin
			w.blame(src, srcNode)
		}
	case trace.EdgeDeliver:
		r.delivers++
		r.deliverB += e.Arg
	}
}

// comm consumes one communication-matrix instant.
func (r *run) comm(e trace.Event) {
	if e.Proc < 0 {
		return // engine-context fault visibility, no proc to classify for
	}
	ps := r.proc(e.Proc)
	if e.Aux == trace.ClassFault && e.Name == "timeout" {
		// The timeout instant follows the event-timeout wait that just
		// expired: the wait was a fault-retry stall, blamed on the peer.
		if w := ps.lastWait(); w != nil && w.end <= e.Time && w.timeout {
			_, peer, _, peerNode := trace.UnpackEndpoints(e.Arg2)
			w.class = classFaultRetry
			w.blame(peer, peerNode)
		}
		return
	}
	ps.comm = lastComm{name: e.Name, class: e.Aux, pack: e.Arg2, time: e.Time, valid: true}
}

// lastWait returns the most recently completed wait, or nil.
func (ps *procState) lastWait() *wait {
	if n := len(ps.waits); n > 0 {
		return &ps.waits[n-1]
	}
	return nil
}

// closeWait completes the park interval that just ended at time end,
// classifying it. Modeled-work parks (Advance, Yield) are not waits.
func (r *run) closeWait(ps *procState, end int64) {
	reason := ps.parkReason
	if reason == "advance" || reason == "yield" {
		return
	}
	w := wait{begin: ps.parkTime, end: end, blamedThread: -1, blamedNode: -1,
		gen: -1, timeout: reason == "event-timeout"}
	r.classify(ps, &w, reason)
	ps.waits = append(ps.waits, w)
}

// classify assigns the wait's class — innermost open span first, then
// the park reason, then the communication instant that preceded the
// park — and resolves barrier/collective blame from the generation's
// release edge (already recorded: the release edge is emitted at the
// last arrival, before the waiters fire).
func (r *run) classify(ps *procState, w *wait, reason string) {
	if n := len(ps.spans); n > 0 {
		sp := ps.spans[n-1]
		switch sp.cat {
		case "upc":
			switch sp.name {
			case "barrier":
				r.classifyGen(ps, w, classBarrier)
				return
			case "collective":
				r.classifyGen(ps, w, classCollective)
				return
			case "lock":
				w.class = classLock // blame attached by the grant edge
				return
			}
		}
	}
	switch reason {
	case "upc-lock":
		w.class = classLock
		return
	case "barrier":
		w.class = classBarrier
		return
	case "mpi-recv":
		w.class = classLateSender // blame attached by the msg-match edge
		return
	case "uts-idle":
		w.class = classIdle
		return
	case "upc-revive", "uts-revive":
		// A dead worker parked for its node's scheduled revival: the whole
		// outage is a fault-category wait, blamed on the rejoin edge when
		// one fires.
		w.class = classRejoin
		return
	}
	// Event waits: an "event"/"event-timeout" park issued right after a
	// communication instant is that transfer's completion wait.
	if ps.comm.valid && ps.comm.time >= ps.lastResume && ps.comm.time <= w.begin {
		src, dst, srcNode, dstNode := trace.UnpackEndpoints(ps.comm.pack)
		peer, peerNode := dst, dstNode
		if ps.comm.name == "get" {
			peer, peerNode = src, srcNode
		}
		switch ps.comm.class {
		case trace.ClassSelf:
			w.class = classCommSelf
		case trace.ClassPSHM:
			w.class = classCommPSHM
		case trace.ClassLoopback:
			w.class = classCommLoop
		case trace.ClassNetwork:
			w.class = classCommNet
		case trace.ClassFault:
			w.class = classFaultRetry
		default:
			return
		}
		w.blame(peer, peerNode)
	}
}

// classifyGen classifies a barrier/collective wait and blames the
// generation's releaser (the late arriver) when it is another thread.
func (r *run) classifyGen(ps *procState, w *wait, c class) {
	w.class = c
	if ps.pendingGen < 0 {
		return
	}
	w.gen, ps.pendingGen = ps.pendingGen, -1
	if g := &r.gens[w.gen]; g.releaser >= 0 && int(g.releaser) != ps.thread {
		w.blamedThread, w.blamedNode = g.releaser, g.releaserNode
	}
}

// endRun closes out the current run: it analyzes the run, folds its
// critical path into the recorder's stacks and drops its raw state.
func (rec *Recorder) endRun() {
	r := rec.cur
	if r == nil {
		return
	}
	acc := r.criticalPath()
	rec.runs = append(rec.runs, r.analyze(acc))
	if rec.folded == nil {
		rec.folded = map[string]int64{}
	}
	for k, v := range acc.folded {
		rec.folded[k] += v
	}
	rec.cur = nil
}
