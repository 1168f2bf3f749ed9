package upc

import (
	"fmt"

	"repro/internal/sim"
)

// Shared is a block-cyclic shared array distributed across all UPC
// threads, the analogue of `shared [B] T A[N]`. Element i has affinity to
// thread (i/B) mod THREADS. Each thread's partition is backed by a real Go
// slice so application kernels operate on genuine data; virtual cost is
// charged by the transfer and charging APIs.
type Shared[T any] struct {
	rt        *Runtime
	id        uint32 // runtime-unique, keys the translation cache
	n         int    // total elements
	elemBytes int
	block     int   // elements per block (layout qualifier)
	segs      [][]T // per-thread partitions
	xfers     sim.FreeList[xfer[T]]
}

// sharedShape is the untyped allocation record used to make Alloc
// collective: the k-th allocation of every thread resolves to one object.
type sharedShape struct {
	obj       any
	n         int
	elemBytes int
	block     int
}

// BlockedLayout returns the block size of a pure blocked (`[*]`) layout of
// n elements over threads: ceil(n/threads).
func BlockedLayout(n, threads int) int {
	return (n + threads - 1) / threads
}

// Alloc collectively allocates a shared array of n elements with the given
// per-element byte size and block size (upc_all_alloc). Every thread must
// call it with identical arguments; it synchronizes like a barrier and
// returns the same array on all threads. blockSize <= 0 selects the
// blocked `[*]` layout.
func Alloc[T any](t *Thread, n, elemBytes, blockSize int) *Shared[T] {
	if n <= 0 || elemBytes <= 0 {
		panic(fmt.Sprintf("upc: Alloc(n=%d, elemBytes=%d)", n, elemBytes))
	}
	if blockSize <= 0 {
		blockSize = BlockedLayout(n, t.N)
	}
	t.Barrier()
	rec := t.rt.allocRecord(t.allocSeq, n, elemBytes, blockSize, func() any {
		t.rt.nextArray++
		s := &Shared[T]{rt: t.rt, id: t.rt.nextArray, n: n, elemBytes: elemBytes, block: blockSize}
		s.segs = make([][]T, t.N)
		for th := 0; th < t.N; th++ {
			s.segs[th] = make([]T, s.PartLen(th))
		}
		return s
	})
	t.allocSeq++
	s, ok := rec.(*Shared[T])
	if !ok {
		panic(fmt.Sprintf("upc: collective Alloc type mismatch at call %d", t.allocSeq-1))
	}
	t.Barrier()
	return s
}

// allocRecord resolves the idx-th collective allocation, creating it on
// first arrival and verifying shape agreement afterwards.
func (rt *Runtime) allocRecord(idx, n, elemBytes, block int, mk func() any) any {
	for len(rt.allocs) <= idx {
		rt.allocs = append(rt.allocs, nil)
	}
	if rt.allocs[idx] == nil {
		rt.allocs[idx] = &sharedShape{obj: mk(), n: n, elemBytes: elemBytes, block: block}
	}
	rec := rt.allocs[idx]
	if rec.n != n || rec.elemBytes != elemBytes || rec.block != block {
		panic(fmt.Sprintf("upc: collective Alloc argument mismatch at call %d: (%d,%d,%d) vs (%d,%d,%d)",
			idx, n, elemBytes, block, rec.n, rec.elemBytes, rec.block))
	}
	return rec.obj
}

// N reports the total element count.
func (s *Shared[T]) N() int { return s.n }

// Block reports the layout block size.
func (s *Shared[T]) Block() int { return s.block }

// Owner reports the thread with affinity to element i.
func (s *Shared[T]) Owner(i int) int {
	return (i / s.block) % len(s.segs)
}

// LocalIndex maps global element i to its index within Owner(i)'s
// partition.
func (s *Shared[T]) LocalIndex(i int) int {
	blockNum := i / s.block
	localBlock := blockNum / len(s.segs)
	return localBlock*s.block + i%s.block
}

// GlobalIndex is the inverse of (Owner, LocalIndex): it maps a thread and
// local index back to the global element index.
func (s *Shared[T]) GlobalIndex(owner, local int) int {
	localBlock := local / s.block
	return (localBlock*len(s.segs)+owner)*s.block + local%s.block
}

// PartLen reports the number of elements with affinity to thread th.
func (s *Shared[T]) PartLen(th int) int {
	t := len(s.segs)
	if t == 0 { // during construction
		t = s.rt.Cfg.Threads
	}
	cycle := s.block * t
	full := s.n / cycle
	rem := s.n % cycle
	extra := rem - th*s.block
	if extra < 0 {
		extra = 0
	}
	if extra > s.block {
		extra = s.block
	}
	return full*s.block + extra
}

// Partition returns owner's backing slice regardless of castability. It
// exists for verification code and delivery-time handlers (everything is
// one address space in the simulation); modeled computation must go
// through Local, Cast, or the transfer APIs so costs are charged.
func (s *Shared[T]) Partition(owner int) []T { return s.segs[owner] }

// Local returns this thread's own partition for direct computation.
func (s *Shared[T]) Local(t *Thread) []T { return s.segs[t.ID] }

// Cast privatizes a pointer to owner's partition (bupc_cast): it returns
// the partition as a directly usable slice when the segment is castable
// from t, or nil otherwise. The query itself is free — the runtime
// establishes the memory maps at startup.
func (s *Shared[T]) Cast(t *Thread, owner int) []T {
	if !t.Castable(owner) {
		return nil
	}
	return s.segs[owner]
}

// ---- Bulk one-sided operations (upc_memput / upc_memget family) ----
//
// The bulk operations are package functions because Go methods cannot
// introduce type parameters.

// PutT copies src into owner's partition at local offset off, blocking
// until remote completion (upc_memput).
func PutT[T any](t *Thread, s *Shared[T], owner, off int, src []T) {
	h := PutAsyncT(t, s, owner, off, src)
	t.WaitSync(h)
	t.remoteAck(owner)
}

// PutAsyncT is the non-blocking form of PutT (upc_memput_async): the data
// is snapshotted at initiation and lands in the target partition when the
// returned handle completes. It panics with the typed error PutAsyncTErr
// would return.
func PutAsyncT[T any](t *Thread, s *Shared[T], owner, off int, src []T) *Handle {
	h, err := PutAsyncTErr(t, s, owner, off, src)
	if err != nil {
		panic(err)
	}
	return h
}

// GetT copies length elements from owner's partition at local offset off
// into dst, blocking until the data has arrived (upc_memget).
func GetT[T any](t *Thread, s *Shared[T], dst []T, owner, off int) {
	h := GetAsyncT(t, s, dst, owner, off)
	t.WaitSync(h)
}

// GetAsyncT is the non-blocking form of GetT; the source is read at
// completion time and copied into dst. It panics with the typed error
// GetAsyncTErr would return.
func GetAsyncT[T any](t *Thread, s *Shared[T], dst []T, owner, off int) *Handle {
	h, err := GetAsyncTErr(t, s, dst, owner, off)
	if err != nil {
		panic(err)
	}
	return h
}

// ReadElem performs a fine-grained shared read of global element i,
// charging one pointer translation plus the access path (direct memory
// when castable; a network get otherwise). It panics with the typed
// error ReadElemErr would return.
func ReadElem[T any](t *Thread, s *Shared[T], i int) T {
	v, err := ReadElemErr(t, s, i)
	if err != nil {
		panic(err)
	}
	return v
}

// WriteElem performs a fine-grained shared write of global element i. It
// panics with the typed error WriteElemErr would return.
func WriteElem[T any](t *Thread, s *Shared[T], i int, v T) {
	if err := WriteElemErr(t, s, i, v); err != nil {
		panic(err)
	}
}
