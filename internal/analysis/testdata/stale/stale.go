package stale

import "time"

// Stamp carries an annotation naming a live rule: it suppresses as
// before.
func Stamp() int64 {
	//upcvet:wallclock -- host timestamp, outside the model
	return time.Now().UnixNano()
}

// Sum carries an annotation naming a rule that no longer exists. It
// suppresses nothing, so it is a finding whichever analyzers run.
func Sum(xs []int) int {
	s := 0
	//upcvet:sharedrace -- each x is read once
	for _, x := range xs {
		s += x
	}
	return s
}
