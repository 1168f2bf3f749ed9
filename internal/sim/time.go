// Package sim provides a deterministic, sequential discrete-event
// simulation engine. Simulated execution contexts (UPC threads, sub-threads,
// MPI ranks) are coroutines the engine resumes: exactly one runs at a
// time, and each yields to the engine whenever it performs a timed action
// (a compute charge, a message transfer, a barrier, a lock acquire). The
// engine advances a virtual clock through a queue of pending events; ties
// are broken by sequence number so runs are bit-for-bit reproducible.
package sim

import "fmt"

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common durations, mirroring time.Duration granularity.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros reports t as floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts floating-point seconds to a Duration, rounding to
// the nearest nanosecond.
func FromSeconds(s float64) Duration {
	return Duration(s*float64(Second) + 0.5)
}

// TransferTime is the virtual time needed to move size bytes at rate
// bytesPerSec. A zero or negative rate yields zero time (an infinitely
// fast resource), which callers use for "free" paths.
func TransferTime(size int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || size <= 0 {
		return 0
	}
	return FromSeconds(float64(size) / bytesPerSec)
}
