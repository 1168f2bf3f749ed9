package sim

// Server is a first-come-first-served pipelined resource, such as a NIC
// injection port or a DMA engine: each request occupies the server for a
// caller-supplied duration, requests are serviced in arrival order, and a
// request's completion time is max(now, previous completion) + duration.
// The requesting process sleeps until its completion.
type Server struct {
	busyUntil Time
}

// Delay enqueues an occupancy of d for p and suspends p until the request
// completes. It returns the completion time.
func (s *Server) Delay(p *Proc, d Duration) Time {
	if d < 0 {
		d = 0
	}
	start := p.Now()
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + d
	if s.busyUntil > p.Now() {
		end := p.TraceSpanArg("sim", "server", "", int64(d))
		p.Advance(s.busyUntil - p.Now())
		end()
	}
	return s.busyUntil
}

// Schedule reserves an occupancy of d without suspending the caller and
// returns the completion time. Use it when one process charges work to a
// resource on behalf of another (e.g. a NIC finishing a transfer that the
// receiver, not the sender, waits on).
func (s *Server) Schedule(now Time, d Duration) Time {
	if d < 0 {
		d = 0
	}
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + d
	return s.busyUntil
}
