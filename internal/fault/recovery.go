package fault

import (
	"repro/internal/sim"
	"repro/internal/trace"
)

// Fence is the membership-epoch fence of one operation: the
// incarnations of both endpoint nodes when it was issued. An operation
// that straddles a reincarnation of either end is stale — completing or
// re-issuing it would let a dead node's past corrupt a live node's
// present. The zero Fence (no fault schedule) is never stale.
type Fence struct {
	inj              *Injector
	src, dst         int // issuing and peer party (thread or rank ids)
	srcNode, dstNode int
	srcInc, dstInc   int64
}

// Fence records the current incarnations of srcNode and dstNode for an
// operation party src issues toward party dst; a nil injector yields the
// zero Fence.
func (inj *Injector) Fence(src, dst, srcNode, dstNode int) Fence {
	if inj == nil {
		return Fence{}
	}
	return Fence{inj: inj, src: src, dst: dst, srcNode: srcNode, dstNode: dstNode,
		srcInc: inj.Incarnation(srcNode), dstInc: inj.Incarnation(dstNode)}
}

// Stale reports whether either endpoint node was reincarnated since the
// fence was taken.
func (f Fence) Stale() bool {
	return f.inj != nil && (f.inj.Incarnation(f.srcNode) != f.srcInc ||
		f.inj.Incarnation(f.dstNode) != f.dstInc)
}

// Deliver wraps a payload apply with the delivery-time fence: a stale
// payload, or one arriving while the peer's node is down, is dropped
// with a comm-matrix "stale-drop" instant. The zero Fence and a nil
// apply pass through untouched, keeping the fault-free path
// allocation-free.
func (f Fence) Deliver(bytes int64, apply func()) func() {
	if apply == nil || f.inj == nil {
		return apply
	}
	return func() {
		if f.Stale() || f.inj.NodeDown(f.dstNode) {
			if eng := f.inj.eng; eng.Tracing() {
				eng.TraceInstant(trace.CatComm, "stale-drop", trace.ClassFault,
					bytes, trace.PackEndpoints(f.src, f.dst, f.srcNode, f.dstNode))
			}
			return
		}
		apply()
	}
}

// Wait is one wait Await protects: an operation whose completion
// injected faults may lose.
type Wait struct {
	Op       string       // CommError.Op
	Src, Dst int          // CommError endpoints; Dst is the instants' peer
	Bytes    int64        // the instants' volume
	Xfer     sim.Duration // fault-free completion time, added to each deadline
	P        *sim.Proc
	Done     *sim.Event // fires when the current attempt completes
	// Fence turns a wait across a reincarnation into ErrStaleEpoch —
	// also one that completed, whose payload the fence dropped.
	Fence Fence
	// Down reports whether a crash explains the stall (ErrNodeDown).
	Down func() bool
	// Event emits the "timeout" and "retry" instants.
	Event func(name string, peer int, bytes int64)
	// Reissue re-issues the operation after attempt attempts and returns
	// the new completion event. Nil for barriers and collectives, which
	// skip the back-off and wait again.
	Reissue func(attempt int) *sim.Event
}

// Await drives w through the deadline ladder: attempt try waits up to
// AttemptTimeout(try, w.Xfer); an expired attempt is reported, diagnosed
// (stale epoch, then node down) and, while retries remain, backed off,
// diagnosed again and re-issued. It returns nil once an attempt
// completes, or the *CommError of the attempt that gave up.
func Await(w *Wait) error {
	for try := 0; ; try++ {
		attempts := try + 1
		if w.Done.WaitTimeout(w.P, AttemptTimeout(try, w.Xfer)) {
			if w.Fence.Stale() {
				return w.fail(attempts, ErrStaleEpoch)
			}
			return nil
		}
		w.Event("timeout", w.Dst, w.Bytes)
		if err := w.diagnose(attempts); err != nil {
			return err
		}
		if try >= MaxRetries {
			return w.fail(attempts, ErrTimeout)
		}
		if w.Reissue == nil {
			continue
		}
		w.P.Advance(backoff(try + 1))
		if err := w.diagnose(attempts); err != nil {
			return err
		}
		w.Event("retry", w.Dst, w.Bytes)
		w.Done = w.Reissue(attempts)
	}
}

// diagnose explains a stalled wait. The fence comes first: an endpoint
// that crashed and revived within the window is alive again, but the
// operation belongs to its previous life.
func (w *Wait) diagnose(attempts int) error {
	if w.Fence.Stale() {
		return w.fail(attempts, ErrStaleEpoch)
	}
	if w.Down() {
		return w.fail(attempts, ErrNodeDown)
	}
	return nil
}

func (w *Wait) fail(attempts int, cause error) error {
	return &CommError{Op: w.Op, Src: w.Src, Dst: w.Dst, Attempts: attempts, Err: cause}
}
