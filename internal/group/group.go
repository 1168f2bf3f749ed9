// Package group implements the cooperative thread-group extension of
// Chapter 3: UPC threads grouped by hardware locality (or any
// application-chosen membership), with group-scoped barriers priced at
// the dissemination cost of the nodes the group spans. Members reach each
// other's shared partitions through upc.Shared.Cast. Groups may overlap,
// matching the thesis's requirement that multiple hardware hierarchies be
// exploitable concurrently.
package group

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/upc"
)

// Group is one thread's view of a thread group.
type Group struct {
	T       *upc.Thread
	Members []int // UPC thread ids, ascending
	Rank    int   // this thread's index within Members

	st *state
}

// state is the group-shared synchronization record, interned on the
// runtime so that every member resolves to the same object.
type state struct {
	n        int
	cost     sim.Duration
	notified int
	inGen    []bool // which member ranks notified this generation (faults only)
	ev       *sim.Event
}

// New builds the group containing exactly the given UPC threads; members
// must include the calling thread. Every member must call New with the
// same membership. Creation is purely local (the memory maps were
// established by the runtime at startup), mirroring the paper's
// observation that the overhead of obtaining neighborhood information and
// pointer casting is negligible.
func New(t *upc.Thread, members []int) (*Group, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("group: empty membership")
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	rank := -1
	for i, m := range ms {
		if i > 0 && ms[i-1] == m {
			return nil, fmt.Errorf("group: duplicate member %d", m)
		}
		if m < 0 || m >= t.N {
			return nil, fmt.Errorf("group: member %d outside [0,%d)", m, t.N)
		}
		if m == t.ID {
			rank = i
		}
	}
	if rank < 0 {
		return nil, fmt.Errorf("group: thread %d not in its own group %v", t.ID, ms)
	}
	rt := t.Runtime()
	key := "group:" + memberKey(ms)
	st := rt.Intern(key, func() any {
		nodes := map[int]bool{}
		for _, m := range ms {
			nodes[rt.PlaceOf(m).Node] = true
		}
		return &state{
			n:     len(ms),
			cost:  rt.Cluster.BarrierCost(len(nodes)),
			inGen: make([]bool, len(ms)),
			ev:    &sim.Event{},
		}
	}).(*state)
	return &Group{T: t, Members: ms, Rank: rank, st: st}, nil
}

func memberKey(ms []int) string {
	parts := make([]string, len(ms))
	for i, m := range ms {
		parts[i] = fmt.Sprint(m)
	}
	return strings.Join(parts, ",")
}

// NodeGroup builds the group of all UPC threads sharing this thread's
// node — the shared-memory thread group used throughout Chapter 3.
func NodeGroup(t *upc.Thread) *Group {
	g, err := New(t, t.SameNodeThreads())
	if err != nil {
		panic("group: NodeGroup: " + err.Error()) // layout guarantees validity
	}
	return g
}

// Barrier synchronizes the group's members only, at the dissemination cost
// of the nodes the group spans (cheap for an intra-node group). Under an
// installed fault schedule it panics with the typed error BarrierErr would
// return instead of hanging on a crashed member.
func (g *Group) Barrier() {
	if g.T.Runtime().FaultsOn() {
		if err := g.BarrierErr(); err != nil {
			panic(err)
		}
		return
	}
	end := g.T.P.TraceSpanArg("group", "barrier", "", int64(g.st.n))
	st := g.st
	ev := st.ev
	st.notified++
	if st.notified == st.n {
		st.notified = 0
		st.ev = &sim.Event{}
		g.T.Runtime().Eng.After(st.cost, ev.Fire)
	}
	ev.Wait(g.T.P)
	end()
}

// BarrierErr is Barrier with failure detection: the generation releases
// once every *live* member has arrived (dead members are skipped), and a
// barrier that can never release returns a typed error after the retry
// policy's deadline ladder instead of hanging.
func (g *Group) BarrierErr() error {
	t := g.T
	rt := t.Runtime()
	if !rt.FaultsOn() {
		g.Barrier()
		return nil
	}
	if t.Failed() {
		return &fault.CommError{Op: "group-barrier", Src: t.ID, Dst: t.ID, Err: fault.ErrNodeDown}
	}
	end := t.P.TraceSpanArg("group", "barrier", "", int64(g.st.n))
	defer end()
	st := g.st
	ev := st.ev
	st.notified++
	st.inGen[g.Rank] = true
	g.maybeRelease()
	rp := rt.RetryPolicy()
	attempts := 0
	for try := 0; try <= rp.MaxRetries; try++ {
		attempts++
		if ev.WaitTimeout(t.P, rp.AttemptTimeout(try, st.cost)) {
			return nil
		}
		t.FaultEvent("timeout", t.ID, 0)
		if t.Failed() {
			return &fault.CommError{Op: "group-barrier", Src: t.ID, Dst: t.ID,
				Attempts: attempts, Err: fault.ErrNodeDown}
		}
		// A member may have died since the last check, which is exactly
		// what completes the generation on the survivors.
		g.maybeRelease()
	}
	return &fault.CommError{Op: "group-barrier", Src: t.ID, Dst: t.ID,
		Attempts: attempts, Err: fault.ErrTimeout}
}

// maybeRelease fires the barrier generation once every live member has
// notified. Called on each arrival and again from the deadline ladder,
// which picks up members that died mid-generation.
func (g *Group) maybeRelease() {
	st := g.st
	if st.notified == 0 {
		return
	}
	for i, m := range g.Members {
		if g.T.Alive(m) && !st.inGen[i] {
			return
		}
	}
	ev := st.ev
	st.notified = 0
	for i := range st.inGen {
		st.inGen[i] = false
	}
	st.ev = &sim.Event{}
	g.T.Runtime().Eng.After(st.cost, ev.Fire)
}
