package upc

import "repro/internal/sim"

// recycler is a pooled record that a handle returns to its free list
// when WaitSync consumes the handle.
type recycler interface{ recycle() }

// xfer is the pooled, typed payload record of one fault-free typed
// transfer on a shared array (PutAsyncT, GetAsyncT, ReadElem,
// WriteElem): the copy from src into dst that the fabric runs at
// delivery. Each Shared[T] keeps its own free list, and a record's apply
// func is bound once, when the list first makes the record, so a warm
// array issues typed transfers without allocating. A put snapshots its
// source into the record's own buffer, whose capacity is kept across
// reuses.
//
// Only fault-free transfers use records: a retried transfer's copy may
// run after its wait returned (a late original, an injected duplicate),
// when a record would already belong to the next transfer.
type xfer[T any] struct {
	s        *Shared[T]
	dst, src []T
	buf      []T    // staging owned by the record
	apply    func() // x.copy, bound once
}

// getXfer takes a record that copies src into dst at delivery.
func (s *Shared[T]) getXfer(dst, src []T) *xfer[T] {
	x := s.xfers.Get()
	if x.apply == nil {
		x.s = s
		x.apply = x.copy
	}
	x.dst, x.src = dst, src
	return x
}

// putXfer takes a record that copies a snapshot of src, taken now, into
// dst at delivery.
func (s *Shared[T]) putXfer(dst, src []T) *xfer[T] {
	x := s.getXfer(dst, nil)
	x.src = x.stage(len(src))
	copy(x.src, src)
	return x
}

// stage returns the first n elements of the record's own buffer.
func (x *xfer[T]) stage(n int) []T {
	if cap(x.buf) < n {
		x.buf = make([]T, n)
	}
	return x.buf[:n]
}

func (x *xfer[T]) copy() { copy(x.dst, x.src) }

func (x *xfer[T]) recycle() {
	x.dst, x.src = nil, nil
	x.s.xfers.Put(x)
}

// xferStats reports the array's record pool accounting.
func (s *Shared[T]) xferStats() sim.PoolStats { return s.xfers.Stats() }

// PoolStats sums the run's free lists: the fabric's operation and flow
// records, the async handles and every shared array's typed payload
// records. At quiescence, with every handle waited, Outstanding() is
// zero.
func (rt *Runtime) PoolStats() sim.PoolStats {
	st := rt.Cluster.PoolStats().Add(rt.handles.Stats())
	for _, a := range rt.allocs {
		if s, ok := a.obj.(interface{ xferStats() sim.PoolStats }); ok {
			st = st.Add(s.xferStats())
		}
	}
	return st
}
