package fault

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Sentinel failure causes of a communication attempt.
var (
	// ErrTimeout marks an operation whose retries were exhausted without
	// a completion (the message or its acknowledgement kept getting lost).
	ErrTimeout = errors.New("timed out")
	// ErrNodeDown marks an operation whose peer's node is crashed.
	ErrNodeDown = errors.New("peer node down")
	// ErrStaleEpoch marks an operation issued in a previous membership
	// epoch: one of its endpoints crashed and was reincarnated after the
	// operation left, so completing (or re-issuing) it would let a dead
	// node's past corrupt a live node's present. The payload was dropped
	// at delivery; the issuer must re-run the operation in its new life.
	ErrStaleEpoch = errors.New("stale membership epoch")
)

// CommError is the typed failure a fault-aware communication call
// returns after recovery gave up: which operation, between which
// endpoints (thread or rank ids), how many attempts were made, and why.
type CommError struct {
	Op       string // "put", "get", "recv", "barrier", ...
	Src, Dst int
	Attempts int
	Err      error // sentinel cause
}

func (e *CommError) Error() string {
	return fmt.Sprintf("fault: %s %d->%d failed after %d attempts: %v",
		e.Op, e.Src, e.Dst, e.Attempts, e.Err)
}

// Unwrap exposes the sentinel cause for errors.Is.
func (e *CommError) Unwrap() error { return e.Err }

// The retry ladder every fault-aware runtime recovers lost messages
// with: per-attempt virtual-time timeouts with capped exponential
// backoff and a bounded retry count. The base timeout comfortably covers
// a healthy small-message round trip (a few microseconds) and the cap
// keeps six attempts within a few milliseconds of virtual time.
const (
	// baseTimeout is the base deadline of one attempt, before the
	// expected transfer time is added.
	baseTimeout = 500 * sim.Microsecond
	// MaxRetries bounds re-sends after the first attempt: an operation
	// makes at most MaxRetries+1 attempts.
	MaxRetries = 6
	// baseBackoff is the pause after the first failed attempt; it
	// doubles per subsequent failure up to maxBackoff.
	baseBackoff = 100 * sim.Microsecond
	// maxBackoff caps the exponential growth.
	maxBackoff = 10 * sim.Millisecond
)

// timeoutScaleCap bounds the per-attempt timeout growth: later attempts
// wait longer (a slow but live path needs patience, not traffic)
// but not unboundedly.
const timeoutScaleCap = 8

// AttemptTimeout reports the deadline of attempt try (0-based) for an
// operation whose fault-free completion takes about xfer of pure
// transfer time. The base grows exponentially with the attempt number,
// capped at timeoutScaleCap, so retries on a slow path converge
// instead of storming.
func AttemptTimeout(try int, xfer sim.Duration) sim.Duration {
	scale := sim.Duration(1) << uint(try)
	if scale > timeoutScaleCap || scale <= 0 {
		scale = timeoutScaleCap
	}
	return scale*baseTimeout + 2*xfer
}

// backoff reports the pause before re-attempt try (1-based: the pause
// taken after the try'th attempt failed): baseBackoff doubled per
// failure, capped at maxBackoff.
func backoff(try int) sim.Duration {
	if try < 1 {
		try = 1
	}
	b := baseBackoff << uint(try-1)
	if b > maxBackoff || b <= 0 {
		b = maxBackoff
	}
	return b
}
