package metrics

import (
	"sort"

	"repro/internal/trace"
)

// utilIntervals is the fixed timeline resolution: every link's busy
// time is folded into this many equal virtual-time intervals. When a
// run outgrows the current interval width the whole timeline re-bins
// into doubled intervals, so the export stays bounded no matter how
// long the run is while short runs keep fine resolution.
const utilIntervals = 128

// utilInitialWidth is the starting interval width in virtual
// nanoseconds (1µs; a full timeline at this width spans 128µs before
// the first re-bin).
const utilInitialWidth = int64(1024)

// UtilTimelines aggregates CatLink occupancy instants (emitted by the
// fabric when a sink opts in via trace.UtilObserver) into per-link
// utilization: busy time per virtual-time interval, the active-flow
// integral (mean queue depth), and the peak depth. Cores, memory
// controllers, NICs and conduit connections are all fabric links, so
// one collector covers core occupancy and wire utilization alike.
//
// Virtual time restarts at every run boundary; a multi-run manifest
// (an experiment sweep) folds each run's timeline onto the same axis,
// so intervals read as "per run-relative time, summed over runs".
type UtilTimelines struct {
	links map[string]*linkUtil
	width int64 // current interval width, ns
}

type linkUtil struct {
	name     string
	active   int64 // current open flow count
	last     int64 // virtual time of the last occupancy change this run
	busy     int64 // total ns with active > 0
	integral int64 // sum of active * dt, ns-flows (mean depth = integral/observed)
	observed int64 // total ns this link was under observation
	peak     int64
	capacity int64 // bytes/s as reported by the fabric; 0 = infinite
	busyAt   [utilIntervals]int64
}

// NewUtilTimelines returns an empty collector.
func NewUtilTimelines() *UtilTimelines {
	return &UtilTimelines{links: map[string]*linkUtil{}, width: utilInitialWidth}
}

// link returns the timeline of e's link, creating it on the link's
// first event.
func (u *UtilTimelines) link(e trace.Event) *linkUtil {
	l := u.links[e.Name]
	if l == nil {
		l = &linkUtil{name: e.Name, capacity: e.Arg2}
		u.links[e.Name] = l
	}
	return l
}

// update applies e, an event of link l, to l's timeline.
func (u *UtilTimelines) update(l *linkUtil, e trace.Event) {
	u.advance(l, e.Time)
	l.active = e.Arg
	if e.Arg > l.peak {
		l.peak = e.Arg
	}
}

// Peak reports the peak active-flow count of one link.
func (u *UtilTimelines) Peak(name string) int64 {
	if l := u.links[name]; l != nil {
		return l.peak
	}
	return 0
}

// Busy reports the total busy nanoseconds of one link.
func (u *UtilTimelines) Busy(name string) int64 {
	if l := u.links[name]; l != nil {
		return l.busy
	}
	return 0
}

// advance charges the open segment [l.last, now) at the link's current
// active count, folding busy time into the interval timeline.
func (u *UtilTimelines) advance(l *linkUtil, now int64) {
	if now <= l.last {
		l.last = now
		return
	}
	dt := now - l.last
	l.observed += dt
	if l.active > 0 {
		l.busy += dt
		l.integral += l.active * dt
		u.addBusy(l, l.last, now)
	}
	l.last = now
}

// addBusy distributes a busy segment over the interval timeline,
// re-binning into wider intervals until the segment's end fits.
func (u *UtilTimelines) addBusy(l *linkUtil, t0, t1 int64) {
	for t1 > u.width*utilIntervals {
		u.rebin()
	}
	for t := t0; t < t1; {
		i := t / u.width
		end := (i + 1) * u.width
		if end > t1 {
			end = t1
		}
		l.busyAt[i] += end - t
		t = end
	}
}

// rebin doubles the interval width, merging adjacent pairs on every
// link's timeline.
func (u *UtilTimelines) rebin() {
	u.width *= 2
	for _, l := range u.links {
		for i := 0; i < utilIntervals/2; i++ {
			l.busyAt[i] = l.busyAt[2*i] + l.busyAt[2*i+1]
		}
		for i := utilIntervals / 2; i < utilIntervals; i++ {
			l.busyAt[i] = 0
		}
	}
}

// EndRun closes every link's open segment at the run's final virtual
// time and resets per-run state; the Collection calls it at each run
// boundary and once at export.
func (u *UtilTimelines) EndRun(end int64) {
	for _, l := range u.links {
		u.advance(l, end)
		l.last = 0
		l.active = 0
	}
}

// UtilPoint is one non-empty timeline interval: interval index I (the
// interval spans [I*width, (I+1)*width) in run-relative virtual time)
// and the busy nanoseconds within it.
type UtilPoint struct {
	I    int   `json:"i"`
	Busy int64 `json:"busy_ns"`
}

// LinkUtil is the manifest form of one link's utilization.
type LinkUtil struct {
	Name string `json:"name"`
	// Capacity is the link's modeled bandwidth in bytes/s (0 = infinite).
	Capacity int64 `json:"capacity,omitempty"`
	// BusyNS is the virtual time the link had at least one active flow.
	BusyNS int64 `json:"busy_ns"`
	// ObservedNS is the virtual time under observation (run lengths).
	ObservedNS int64 `json:"observed_ns"`
	// Peak is the maximum concurrent active-flow count (queue depth).
	Peak int64 `json:"peak"`
	// DepthNS is the integral of active flows over time; DepthNS /
	// ObservedNS is the mean queue depth.
	DepthNS int64 `json:"depth_ns"`
	// Timeline holds the non-empty busy intervals.
	Timeline []UtilPoint `json:"timeline,omitempty"`
}

// UtilExport is the manifest form of all timelines.
type UtilExport struct {
	// IntervalNS is the timeline interval width in virtual nanoseconds.
	IntervalNS int64      `json:"interval_ns"`
	Links      []LinkUtil `json:"links"`
}

// Export builds the manifest form, or nil if no occupancy events were
// seen. Call EndRun first to close open segments.
func (u *UtilTimelines) Export() *UtilExport {
	if len(u.links) == 0 {
		return nil
	}
	names := make([]string, 0, len(u.links))
	for k := range u.links {
		names = append(names, k)
	}
	sort.Strings(names)
	e := &UtilExport{IntervalNS: u.width}
	for _, name := range names {
		l := u.links[name]
		lu := LinkUtil{
			Name: l.name, Capacity: l.capacity, BusyNS: l.busy,
			ObservedNS: l.observed, Peak: l.peak, DepthNS: l.integral,
		}
		for i, b := range l.busyAt {
			if b != 0 {
				lu.Timeline = append(lu.Timeline, UtilPoint{I: i, Busy: b})
			}
		}
		e.Links = append(e.Links, lu)
	}
	return e
}
