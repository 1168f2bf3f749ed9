//go:build go1.23

package sim

import "iter"

// pull starts body as a coroutine in the form of iter.Pull: next runs
// body until it yields or returns, reporting true for a yield and false
// once body has returned; stop makes a pending yield return false, runs
// body to its end and waits for it. A panic in body is re-raised in the
// caller of next or stop. The engine resumes every process through next,
// so a switch between processes never passes through the Go scheduler.
func pull(body func(yield func(struct{}) bool)) (next func() (struct{}, bool), stop func()) {
	return iter.Pull(body)
}
