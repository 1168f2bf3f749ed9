package trace

// MergeStreams k-way merges several time-sorted event streams into dst,
// ordering by (Time, stream index) and preserving each stream's own
// emission order among equal timestamps. The merged stream — and
// therefore the TraceDigest and every manifest built from it — depends
// only on the streams' contents, never on the order in which their
// producers filled them.
//
// Streams must individually be sorted by Time (engine emission order
// guarantees this: virtual time never runs backwards within one engine).
func MergeStreams(dst Tracer, streams [][]Event) {
	// pos[i] is the cursor into streams[i].
	switch len(streams) {
	case 0:
		return
	case 1:
		for _, e := range streams[0] {
			dst.Emit(e)
		}
		return
	}
	pos := make([]int, len(streams))
	for {
		min := -1
		var minT int64
		for i, s := range streams {
			if pos[i] >= len(s) {
				continue
			}
			if t := s[pos[i]].Time; min < 0 || t < minT {
				min, minT = i, t
			}
		}
		if min < 0 {
			return
		}
		// Drain the run of equal-or-earlier-than-the-next-contender events
		// from the winning stream in one go: long same-stream bursts cost
		// one scan of the contenders instead of one per event.
		s := streams[min]
		next := int64(0)
		haveNext := false
		for i, t := range streams {
			if i == min || pos[i] >= len(t) {
				continue
			}
			if v := t[pos[i]].Time; !haveNext || v < next {
				next, haveNext = v, true
			}
		}
		p := pos[min]
		for p < len(s) && (!haveNext || s[p].Time < next || (s[p].Time == next && min < lowestReady(streams, pos, min, next))) {
			dst.Emit(s[p])
			p++
		}
		pos[min] = p
	}
}

// lowestReady reports the lowest stream index (other than skip) whose
// cursor sits at time t, or len(streams) if none does. It resolves the
// equal-timestamp tie: the event from the lowest stream index goes first.
func lowestReady(streams [][]Event, pos []int, skip int, t int64) int {
	for i, s := range streams {
		if i == skip || pos[i] >= len(s) {
			continue
		}
		if s[pos[i]].Time == t {
			return i
		}
	}
	return len(streams)
}
