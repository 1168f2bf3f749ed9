// Package collok holds the aligned shapes collalign must stay quiet
// on: uniform conditions, branches whose arms run the same collective
// sequence, collective-cleansed loop bounds, and annotated suppression.
package collok

type thread struct{ ID, N int }

func (*thread) Barrier() {}

// AllReduceSum mirrors the upc package collective: every thread gets
// the same replicated result.
func AllReduceSum(t *thread, v float64) float64 { return v }

var work int

// Uniform condition: all threads take the same arm.
func uniformCond(t *thread, steps int) {
	if steps > 4 {
		t.Barrier()
	}
}

// Thread-conditional arms with identical collective sequences align.
func balancedArms(t *thread) {
	if t.ID == 0 {
		work++
		t.Barrier()
	} else {
		t.Barrier()
	}
}

// The loop bound is thread-dependent input reduced to a replicated
// value: every thread runs the same trip count.
func cleansedBound(t *thread) {
	n := AllReduceSum(t, float64(t.ID))
	for i := 0.0; i < n; i++ {
		t.Barrier()
	}
}

// Thread-conditional branches without collectives are fine.
func noCollectives(t *thread) {
	if t.ID == 0 {
		work++
	}
}

// Justified divergence is suppressible.
func annotated(t *thread) {
	//upcvet:collalign -- intentionally divergent in this fixture
	if t.ID == 0 {
		t.Barrier()
	}
}
