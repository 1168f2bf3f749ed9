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

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/upc"
)

// Group is one thread's view of a thread group.
type Group struct {
	T       *upc.Thread
	Members []int // UPC thread ids, ascending
	Rank    int   // this thread's index within Members

	// rv is the group's barrier, interned on the runtime so that every
	// member resolves to the same rendezvous; cost is its release cost.
	rv   *sim.Rendezvous
	cost sim.Duration
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
	rv := rt.Intern("group:"+fmt.Sprint(ms), func() any {
		var live func(int) bool // under faults dead members are skipped
		if rt.FaultsOn() {
			live = func(i int) bool { return t.Alive(ms[i]) }
		}
		return sim.NewRendezvous(len(ms), live)
	}).(*sim.Rendezvous)
	nodes := map[int]bool{}
	for _, m := range ms {
		nodes[rt.PlaceOf(m).Node] = true
	}
	return &Group{T: t, Members: ms, Rank: rank, rv: rv,
		cost: rt.Cluster.BarrierCost(len(nodes))}, nil
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
	if err := g.BarrierErr(); err != nil {
		panic(err)
	}
}

// BarrierErr is Barrier with failure detection: the generation releases
// once every *live* member has arrived (dead members are skipped), and a
// barrier that can never release returns a typed error after
// fault.Await's deadline ladder instead of hanging.
func (g *Group) BarrierErr() error {
	t := g.T
	if t.Failed() {
		return &fault.CommError{Op: "group-barrier", Src: t.ID, Dst: t.ID, Err: fault.ErrNodeDown}
	}
	end := t.P.TraceSpanArg("group", "barrier", "", int64(len(g.Members)))
	defer end()
	ev := g.rv.Arrive(g.Rank)
	g.release()
	rt := t.Runtime()
	if !rt.FaultsOn() {
		ev.Wait(t.P)
		return nil
	}
	return fault.Await(&fault.Wait{
		Op: "group-barrier", Src: t.ID, Dst: t.ID, Xfer: g.cost, P: t.P, Done: ev,
		Down: func() bool {
			if t.Failed() {
				return true
			}
			// A member may have died since the last check, which is
			// exactly what completes the generation on the survivors.
			g.release()
			return false
		},
		Event: t.FaultEvent,
	})
}

// release releases the open barrier generation once every live member
// has arrived. Called on each arrival and again from the deadline
// ladder, which picks up members that died mid-generation.
func (g *Group) release() {
	if g.rv.Complete() {
		g.rv.Release(g.T.Runtime().Eng, g.cost)
	}
}
