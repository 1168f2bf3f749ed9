package metrics

import (
	"repro/internal/trace"
)

// Collection bundles the registry and the three trace-fed collectors
// behind one trace.Tracer, and tracks the stream-level facts a manifest
// records: run count, seeds, event count, digest, total virtual time.
// Attach it to a trace session (Session.Attach) so it rides the same
// serialized, replay-ordered stream as the digest — that is what makes
// -metrics manifests byte-identical at any -parallel level.
//
// Collection opts into link-occupancy events (trace.UtilObserver), so
// installing one enables the fabric's CatLink emissions for the whole
// sink chain of the engines built afterwards.
type Collection struct {
	Reg  *Registry
	Comm *CommMatrix
	Util *UtilTimelines
	Prof *Profile

	dg        *trace.Digest
	shared    bool // dg is a trace session's, which hashes every event for us
	keys      map[eventKey]*entries
	links     map[string]*entries
	runs      int64
	seeds     []int64
	curMax    int64 // latest virtual time seen in the current run
	totalNS   int64 // summed final times of completed runs
	finalized bool
}

// eventKey groups the instants and counters other than link-occupancy
// changes that feed the same registry entries.
type eventKey struct {
	kind           trace.Kind
	cat, name, aux string
}

// entries are one key's registry entries, resolved on the key's first
// event so that later ones build no names:
//   - comm instants: a = comm.<name>.msgs, b = comm.<name>.bytes,
//     size = comm.size.<aux>;
//   - link instants: a = util.peak.<name>, util = the link's timeline;
//   - other instants: a = instant.<cat>/<name>.n, b = ….sum;
//   - counters: a = counter.<name>.
type entries struct {
	a, b *int64
	size *Histogram
	util *linkUtil
}

// NewCollection returns an empty collection.
func NewCollection() *Collection {
	return &Collection{
		Reg:   NewRegistry(),
		Comm:  NewCommMatrix(),
		Util:  NewUtilTimelines(),
		Prof:  NewProfile(),
		dg:    trace.NewDigest(),
		keys:  map[eventKey]*entries{},
		links: map[string]*entries{},
	}
}

// ObserveUtil opts the collection into link-occupancy events.
func (c *Collection) ObserveUtil() bool { return true }

// ShareDigest adopts d, a trace session's digest, as the collection's
// own (trace.DigestSharer), so the stream is hashed once, not twice.
// Session.Attach calls it only before the session's first event, when
// the collection will see exactly the session's stream. A collection
// that has already digested events keeps its own digest.
func (c *Collection) ShareDigest(d *trace.Digest) {
	if c.dg.Events() == 0 {
		c.dg, c.shared = d, true
	}
}

// Emit aggregates one event.
func (c *Collection) Emit(e trace.Event) {
	if !c.shared {
		c.dg.Emit(e)
	}
	if e.Time > c.curMax {
		c.curMax = e.Time
	}
	switch e.Kind {
	case trace.KRunBegin:
		c.endRun()
		c.runs++
		c.addSeed(e.Arg)
	case trace.KSpanBegin, trace.KSpanEnd:
		c.Prof.Record(e)
	case trace.KInstant:
		switch e.Cat {
		case trace.CatLink:
			r := c.link(e)
			c.Util.update(r.util, e)
			setMax(r.a, e.Arg)
		case trace.CatComm:
			r := c.resolve(e)
			c.Comm.Record(e)
			*r.a++
			*r.b += e.Arg
			r.size.observe(e.Arg)
		default:
			r := c.resolve(e)
			*r.a++
			*r.b += e.Arg
		}
	case trace.KCounter:
		*c.resolve(e).a += e.Arg
	case trace.KProcSpawn:
		c.Reg.Add("procs.spawned", 1)
	case trace.KProcExit:
		c.Reg.Add("procs.exited", 1)
	}
}

// link returns the entries of a link-occupancy event's link, resolving
// them on the link's first event. Links are the most frequent key, so
// they have their own map keyed by name alone.
func (c *Collection) link(e trace.Event) *entries {
	if r := c.links[e.Name]; r != nil {
		return r
	}
	r := &entries{a: c.Reg.gauge("util.peak."+e.Name, e.Arg), util: c.Util.link(e)}
	c.links[e.Name] = r
	return r
}

// resolve returns the registry entries of any other instant or counter,
// resolving them on the first event of e's key.
func (c *Collection) resolve(e trace.Event) *entries {
	k := eventKey{kind: e.Kind, cat: e.Cat, name: e.Name, aux: e.Aux}
	if r := c.keys[k]; r != nil {
		return r
	}
	r := &entries{}
	switch {
	case e.Kind == trace.KCounter:
		r.a = c.Reg.counter("counter." + e.Name)
	case e.Cat == trace.CatComm:
		r.a = c.Reg.counter("comm." + e.Name + ".msgs")
		r.b = c.Reg.counter("comm." + e.Name + ".bytes")
		r.size = c.Reg.hist("comm.size."+e.Aux, e.Arg)
	default:
		name := "instant." + e.Cat + "/" + e.Name
		r.a = c.Reg.counter(name + ".n")
		r.b = c.Reg.counter(name + ".sum")
	}
	c.keys[k] = r
	return r
}

// endRun closes out the current run's per-run state.
func (c *Collection) endRun() {
	c.totalNS += c.curMax
	c.Util.EndRun(c.curMax)
	c.Prof.EndRun()
	c.curMax = 0
}

// addSeed records a run seed, keeping the distinct values in
// first-seen order (sweeps reuse one seed; a distinct-seeds study
// records each).
func (c *Collection) addSeed(seed int64) {
	for _, s := range c.seeds {
		if s == seed {
			return
		}
	}
	if len(c.seeds) < 64 {
		c.seeds = append(c.seeds, seed)
	}
}

// Events reports the number of events observed so far.
func (c *Collection) Events() int64 { return c.dg.Events() }

// Digest reports the order-sensitive hash of the observed stream. A
// collection attached to a trace session before the session's first
// event shares the session's digest, so the two are equal by
// construction. A standalone collection, or one attached after the
// first event, hashes what it receives itself: the suffix of the stream
// from its attachment on.
func (c *Collection) Digest() uint64 { return c.dg.Sum64() }

// Manifest finalizes the collection and builds the run manifest. Call
// once, after the last simulation finished; further events would
// land in closed-out aggregations.
func (c *Collection) Manifest(tool string, params map[string]string) *Manifest {
	if !c.finalized {
		c.finalized = true
		c.endRun()
	}
	return &Manifest{
		Tool:       tool,
		Params:     params,
		Runs:       c.runs,
		Seeds:      append([]int64(nil), c.seeds...),
		Events:     c.dg.Events(),
		Digest:     c.dg.String(),
		VirtualNS:  c.totalNS,
		Counters:   c.Reg.Counters(),
		Gauges:     c.Reg.Gauges(),
		Histograms: c.Reg.Histograms(),
		Comm:       c.Comm.Export(),
		Util:       c.Util.Export(),
		Profile:    c.Prof.Export(),
	}
}
