// Package colldata seeds the textually-unaligned-barrier deadlocks
// collalign must catch: collectives guarded by thread-identity
// branches, thread-dependent loop trip counts enclosing collectives,
// and the same bugs hidden behind a call. The stub types mirror the
// upc.Thread / group method shapes; the analyzer keys on method names
// and thread-identity expressions, not import paths.
package colldata

type thread struct{ ID, N int }

func (*thread) Barrier() {}

var work int

// The classic: only thread 0 reaches the barrier.
func condBarrier(t *thread) {
	if t.ID == 0 { // want "thread-conditional branch"
		t.Barrier()
	}
}

// Divergent early exit: high threads skip the collective entirely.
func earlyReturn(t *thread) {
	if t.ID > 2 { // want "thread-conditional branch"
		return
	}
	t.Barrier()
}

// Thread-dependent trip count: threads execute different numbers of
// barrier iterations and misalign.
func unbalancedLoop(t *thread) {
	for i := t.ID; i < 16; i += t.N { // want "thread-dependent trip count"
		t.Barrier()
	}
}

// The same bug one call away: the helper's collective is reached only
// by thread 0 (interprocedural MayCollect).
func helperBarrier(t *thread) {
	t.Barrier()
}

func leaderOnly(t *thread) {
	if t.ID == 0 { // want "thread-conditional branch"
		helperBarrier(t)
	}
}

// Thread-dependent switch dispatch around a collective.
func switchDivergent(t *thread) {
	switch t.ID { // want "thread-conditional switch"
	case 0:
		t.Barrier()
	default:
		work++
	}
}
