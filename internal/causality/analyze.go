package causality

import (
	"fmt"
	"slices"
	"sort"
)

// Critical-path categories.
const (
	CatCompute = "compute"
	CatPSHM    = "pshm"
	CatNetwork = "network"
	CatFault   = "fault"
	CatIdle    = "idle"
)

// threadName renders a blamed thread for humans: the proc name when
// the thread's identity was learned from an edge, a numeric fallback
// otherwise.
func (r *run) threadName(tid int) string {
	if p, ok := r.threadProc[tid]; ok {
		if ps := r.lookup(p); ps != nil && ps.name != "" {
			return ps.name
		}
	}
	return fmt.Sprintf("thread%d", tid)
}

// waitCat maps a classified wait onto its critical-path category when
// the walk attributes the wait to the waiter itself.
func (r *run) waitCat(ps *procState, w *wait) string {
	switch w.class {
	case classCommSelf, classCommPSHM:
		return CatPSHM
	case classCommLoop, classCommNet:
		return CatNetwork
	case classFaultRetry, classRejoin:
		return CatFault
	case classBarrier, classCollective, classLock, classLateSender:
		if w.blamedNode >= 0 && ps.node >= 0 && int(w.blamedNode) == ps.node {
			return CatPSHM
		}
		if w.blamedNode >= 0 {
			return CatNetwork
		}
	}
	return CatIdle
}

// cpAccum accumulates the critical-path walk's segments.
type cpAccum struct {
	cats    map[string]int64
	perProc map[int32]int64
	perNode map[int]int64
	folded  map[string]int64 // "category;thread" -> ns
	steps   int
}

func newCPAccum() *cpAccum {
	return &cpAccum{
		cats:    map[string]int64{},
		perProc: map[int32]int64{},
		perNode: map[int]int64{},
		folded:  map[string]int64{},
	}
}

func (a *cpAccum) add(r *run, cat string, p int32, node int, ns int64) {
	if ns <= 0 {
		return
	}
	a.cats[cat] += ns
	a.perProc[p] += ns
	a.perNode[node] += ns
	name := "?"
	if ps := r.lookup(p); ps != nil && ps.name != "" {
		name = ps.name
	}
	a.folded[cat+";"+name] += ns
}

// criticalPath walks backward from the run's final event. Each step
// charges the segment between the current time and the proc's latest
// earlier wait as compute, then either jumps along the happens-before
// edge to the thread that caused the wait (barrier releaser at its
// arrival time, lock holder / message sender at the wait's end) or
// charges the wait interval to its own category and continues on the
// same proc. Every charged segment partitions (0, makespan] exactly,
// so the per-category sums add up to the run makespan. Termination:
// every iteration consumes one wait through a strictly decreasing
// per-proc cursor, so the walk is bounded by the total wait count.
func (r *run) criticalPath() *cpAccum {
	acc := newCPAccum()
	if len(r.order) == 0 {
		return acc
	}
	// Start at the proc whose exit is latest (ties: lowest id).
	p := r.order[0]
	best := int64(-1)
	for _, id := range r.order {
		ps := r.lookup(id)
		if ps.exited && (ps.exitTime > best || (ps.exitTime == best && id < p)) {
			p, best = id, ps.exitTime
		}
	}
	// cursor[id+1] bounds the waits of proc id the walk may still take.
	cursor := make([]int, len(r.procs))
	for i, ps := range r.procs {
		if ps != nil {
			cursor[i] = len(ps.waits)
		}
	}
	t := r.maxTime
	for t > 0 {
		ps := r.lookup(p)
		i := cursor[p+1] - 1
		for i >= 0 && ps.waits[i].end > t {
			i--
		}
		if i < 0 {
			acc.add(r, CatCompute, p, ps.node, t)
			break
		}
		cursor[p+1] = i
		w := &ps.waits[i]
		if t > w.end {
			acc.add(r, CatCompute, p, ps.node, t-w.end)
		}
		t = w.end
		acc.steps++
		if w.gen >= 0 {
			if g := &r.gens[w.gen]; g.releaser >= 0 && int(g.releaser) != ps.thread {
				if rp, ok := r.threadProc[int(g.releaser)]; ok && g.releaseTime < t {
					// The gap from the last arrival to the release is the
					// dissemination cost: network when the releaser sits on
					// another node, shared-memory signaling otherwise.
					gap := CatNetwork
					if int(g.releaserNode) == ps.node && ps.node >= 0 {
						gap = CatPSHM
					}
					acc.add(r, gap, p, ps.node, t-g.releaseTime)
					p, t = rp, g.releaseTime
					continue
				}
			}
			acc.add(r, r.waitCat(ps, w), p, ps.node, t-w.begin)
			t = w.begin
			continue
		}
		if (w.class == classLock || w.class == classLateSender) && w.blamedThread >= 0 {
			if bp, ok := r.threadProc[int(w.blamedThread)]; ok && bp != p {
				// Hand off to the delaying thread: its activity up to the
				// wait's end explains this part of the makespan.
				p = bp
				continue
			}
		}
		acc.add(r, r.waitCat(ps, w), p, ps.node, t-w.begin)
		t = w.begin
	}
	return acc
}

// rootBlame walks blame edges transitively: if the thread blamed for a
// wait was itself waiting on someone else just before its releasing
// arrival, the delay's root cause is that earlier thread. The chain
// follows a wait only when it dominates the gap to the arrival — the
// compute the blamed thread ran after its own wait ended must be
// shorter than that wait, otherwise the delay was its own doing and
// blame stays put. lo bounds the walk to the original wait's window;
// depth and the visited threads bound cycles. Each step finds the
// blamed proc's latest wait ending at or before at by binary search, as
// a proc's waits ascend by end, so a call costs O(log waits).
func (r *run) rootBlame(tid int, at, lo int64) int {
	var seen [8]int
	for depth := range seen {
		if slices.Contains(seen[:depth], tid) {
			break
		}
		seen[depth] = tid
		p, ok := r.threadProc[tid]
		if !ok {
			break
		}
		ws := r.lookup(p).waits
		i := sort.Search(len(ws), func(i int) bool { return ws[i].end > at }) - 1
		if i < 0 {
			break
		}
		w := &ws[i]
		if w.end < lo || at-w.end > w.end-w.begin || w.blamedThread < 0 || int(w.blamedThread) == tid {
			break
		}
		tid, at = int(w.blamedThread), w.end
	}
	return tid
}
