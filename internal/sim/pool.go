package sim

// FreeList is a typed LIFO free list for pooled simulation objects.
// Because the engine runs model code sequentially (one process or event
// callback at a time), no locking is needed: a pool is owned by
// whatever model object embeds it and touched only from that object's
// execution context.
//
// Get hands out a recycled object or a zero-valued new one; the caller
// resets whatever fields it uses. Put returns an object for reuse — the
// caller must guarantee no other reference remains live (no parked
// waiter, no pending event) before releasing.
//
// The counters exist for the pool-leak invariant: at quiescence every
// Get must have a matching Put (Stats().Outstanding() == 0), which the
// fabric chaos-soak tests assert across fault schedules.
type FreeList[T any] struct {
	free []*T
	gets int64
	puts int64
	news int64
}

// Get pops a recycled object, or allocates a fresh zero value when the
// list is empty.
func (f *FreeList[T]) Get() *T {
	f.gets++
	if n := len(f.free); n > 0 {
		x := f.free[n-1]
		f.free[n-1] = nil
		f.free = f.free[:n-1]
		return x
	}
	f.news++
	return new(T)
}

// Put returns x to the list for reuse.
func (f *FreeList[T]) Put(x *T) {
	f.puts++
	f.free = append(f.free, x)
}

// Stats reports the pool's lifetime counters.
func (f *FreeList[T]) Stats() PoolStats {
	return PoolStats{Gets: f.gets, Puts: f.puts, News: f.news, Idle: len(f.free)}
}

// PoolStats is a point-in-time snapshot of a FreeList's accounting.
type PoolStats struct {
	Gets int64 // objects handed out
	Puts int64 // objects returned
	News int64 // Gets served by a fresh allocation
	Idle int   // objects currently sitting in the list
}

// Outstanding reports how many handed-out objects have not been
// returned. Zero at quiescence means no leak and no double-free.
func (s PoolStats) Outstanding() int64 { return s.Gets - s.Puts }

// Add merges two snapshots, for summing across a set of pools.
func (s PoolStats) Add(o PoolStats) PoolStats {
	return PoolStats{
		Gets: s.Gets + o.Gets,
		Puts: s.Puts + o.Puts,
		News: s.News + o.News,
		Idle: s.Idle + o.Idle,
	}
}
