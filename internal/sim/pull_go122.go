//go:build !go1.23

package sim

// pull is the go1.22 form of the go1.23 coroutine primitive (pull.go),
// with the same next/stop contract: body runs on its own goroutine, and
// each switch is a send on an unbuffered channel. It goes away once the
// module's go directive reaches 1.23.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	var (
		stopped, done bool
		panicVal      any
	)
	resume := make(chan struct{})
	yielded := make(chan bool) // true: body yielded; false: body returned
	yield := func(struct{}) bool {
		if stopped {
			return false
		}
		yielded <- true
		<-resume
		return !stopped
	}
	go func() {
		defer func() {
			panicVal = recover()
			yielded <- false
		}()
		<-resume
		if !stopped {
			body(yield)
		}
	}()
	// wait hands control to body and blocks until it yields or returns;
	// a panic in body is re-raised here.
	wait := func() bool {
		resume <- struct{}{}
		if <-yielded {
			return true
		}
		done = true
		if panicVal != nil {
			panic(panicVal)
		}
		return false
	}
	next = func() (struct{}, bool) {
		if done {
			return struct{}{}, false
		}
		return struct{}{}, wait()
	}
	stop = func() {
		if !done {
			stopped = true
			wait()
		}
	}
	return next, stop
}
