// Package raceok holds the disjointness idioms sharedrace must accept:
// barrier-separated phases, owner-affine accesses, thread-keyed
// stripes, Cast-guarded spans, lock-held protocols, solo-executor
// guards and annotated suppression of a multi-line statement.
package raceok

type thread struct{ ID, N int }

func (*thread) Barrier() {}

type shared struct{}

func (*shared) Local(t *thread) []int64 { return nil }

func (*shared) Cast(t *thread, owner int) []int64 { return nil }

type lock struct{}

func (*lock) Lock(t *thread) {}

func (*lock) TryLock(t *thread) bool { return true }

func (*lock) Unlock(t *thread) {}

func PutT(t *thread, s *shared, owner, off int, src []int64) {}

func GetT(t *thread, s *shared, dst []int64, owner, off int) {}

func ReadElem(t *thread, s *shared, i int) int64 { return 0 }

func WriteElem(t *thread, s *shared, i int, v int64) {}

// Both accesses stay in this thread's partition.
func bothLocal(t *thread, s *shared) int64 {
	la := s.Local(t)
	la[0] = 1
	return la[1]
}

// A collective separates the phases.
func barrierSeparated(t *thread, s *shared) int64 {
	la := s.Local(t)
	la[0] = int64(t.ID)
	t.Barrier()
	return ReadElem(t, s, (t.ID+1)%t.N)
}

// Affinity-disjoint by stripe: every access offsets by t.ID*B, so
// distinct threads touch distinct stripes of any partition.
func keyedStripes(t *thread, s *shared) {
	buf := make([]int64, 4)
	PutT(t, s, 0, t.ID*4, buf)
	GetT(t, s, buf, 1, t.ID*4)
}

// The same bijective owner expression on both sides keeps the
// partition map a permutation.
func bijectivePeer(t *thread, s *shared) {
	peer := t.ID ^ 1
	buf := make([]int64, 1)
	PutT(t, s, peer, 0, buf)
	GetT(t, s, buf, peer, 8)
}

// A nil-guarded Cast span is the castability contract the affinity
// analyzer enforces; inside it the pointer is node-local.
func castGuarded(t *thread, s *shared) int64 {
	if seg := s.Cast(t, 1); seg != nil {
		seg[0] = 1
	}
	la := s.Local(t)
	return la[0]
}

// Lock-held accesses are serialized, including past the early-release
// return arm.
func lockProtocol(t *thread, s *shared, l *lock, full bool) int64 {
	l.Lock(t)
	if full {
		l.Unlock(t)
		return 0
	}
	WriteElem(t, s, 5, 1)
	l.Unlock(t)
	return ReadElem(t, s, 5)
}

// Only the root executes both accesses.
func soloRoot(t *thread, s *shared) {
	if t.ID == 0 {
		WriteElem(t, s, 3, 1)
	}
	if t.ID == 0 {
		WriteElem(t, s, 3, 2)
	}
}

// A suppression on a multi-line statement covers every line of the
// statement, not just the first.
func annotated(t *thread, s *shared) int64 {
	la := s.Local(t)
	buf := make([]int64, 1)
	PutT(t, s, (t.ID*3+1)%t.N, 0, buf)
	//upcvet:sharedrace -- fixture: the remote put targets a scratch slot no reader observes
	v := la[0] +
		la[1] +
		ReadElem(t, s,
			(t.ID+1)%t.N)
	return v
}

// run launches body as one SPMD program over fresh threads.
func run(body func(t *thread)) {}

func report(args ...any) {}

// A host loop around the SPMD closure launches a fresh run per
// iteration: the closure's last phase never meets its first, so the
// loop must not wrap the closure's phases into each other.
func hostLoopAroundRun(s *shared, configs []int) {
	for range configs {
		run(func(t *thread) {
			la := s.Local(t)
			la[0] = int64(t.ID)
			t.Barrier()
			seg := s.Cast(t, (t.ID+1)%t.N)
			if seg == nil {
				return
			}
			report(seg)
		})
	}
}
