package fault_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/fault"
	"repro/internal/group"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
	"repro/internal/upc"
)

// recoveryGolden is the SHA-256 over every recovery scenario's event
// digest (completion edges included), end time and error strings. It
// pins the order of every timeout, back-off, retry, stale drop, barrier
// and collective release the upc, mpi and group recovery paths make.
const recoveryGolden = "432be164fafb0770b1ed7522eed700d25cc71ff51d0e3579785b2e084c04a258"

// edgeDigest is a Digest that also asks for completion-edge instants, so
// barrier, collective, retry and rejoin edges are hashed too.
type edgeDigest struct{ *trace.Digest }

func (edgeDigest) ObserveEdge() bool { return true }

// errString renders a possibly-nil error for hashing.
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// recovered runs fn and returns the error it panicked with, if any.
func recovered(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = r.(error)
		}
	}()
	fn()
	return nil
}

// upcCfg is 8 threads on 2 nodes: thread i and i+4 talk across the
// network.
func upcCfg(sched *fault.Schedule, tr trace.Tracer) upc.Config {
	return upc.Config{
		Machine:        topo.Lehman(),
		Threads:        8,
		ThreadsPerNode: 4,
		Backend:        upc.Processes,
		PSHM:           true,
		Seed:           1,
		Tracer:         tr,
		Faults:         sched,
	}
}

// mpiCfg is 4 ranks on 2 nodes: rank r and r^2 talk across the network.
func mpiCfg(sched *fault.Schedule, tr trace.Tracer) mpi.Config {
	return mpi.Config{
		Machine:      topo.Lehman(),
		Ranks:        4,
		RanksPerNode: 2,
		Seed:         1,
		Tracer:       tr,
		Faults:       sched,
	}
}

// recoveryScenario is one run: it reports the run's end time and writes
// whatever else it observed (per-thread errors and results) to w.
type recoveryScenario struct {
	name string
	run  func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error)
}

var recoveryScenarios = []recoveryScenario{
	{"upc-lossy-put-get", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDrop, At: 0, Until: 0.004, Prob: 0.4, Src: -1, Dst: -1},
			{Op: fault.OpDuplicate, At: 0, Until: 0.004, Prob: 0.25, Src: -1, Dst: -1},
			{Op: fault.OpDelay, At: 0, Until: 0.004, Prob: 0.3, Extra: 0.0002, Src: -1, Dst: -1},
		}}
		errs := make([]string, 8)
		st, err := upc.Run(upcCfg(sched, tr), func(th *upc.Thread) {
			s := upc.Alloc[int](th, 64, 8, 8)
			buf := make([]int, 2)
			peer := (th.ID + 4) % 8
			for r := 0; r < 3; r++ {
				perr := upc.PutTErr(th, s, peer, 2*r, []int{th.ID, r})
				th.Barrier()
				gerr := upc.GetTErr(th, s, buf, peer, 2*r)
				errs[th.ID] += fmt.Sprintf("%s|%s|%v;", errString(perr), errString(gerr), buf)
				th.Barrier()
			}
		})
		fmt.Fprintln(w, errs)
		return st.Elapsed, err
	}},
	{"upc-armed-put-stream", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		// Back-to-back protected puts under an armed schedule that never
		// drops: each put's attempt timer outlives the put, and its
		// pooled record is recycled for the next one.
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDelay, At: 0, Until: 0.002, Prob: 0.1, Extra: 0.0001, Src: -1, Dst: -1},
		}}
		errs := make([]string, 8)
		st, err := upc.Run(upcCfg(sched, tr), func(th *upc.Thread) {
			s := upc.Alloc[int](th, 8*64, 8, 64)
			peer := (th.ID + 4) % 8
			for i := 0; i < 64; i++ {
				if perr := upc.PutTErr(th, s, peer, i, []int{i}); perr != nil {
					errs[th.ID] += perr.Error() + ";"
				}
			}
			th.Barrier()
		})
		fmt.Fprintln(w, errs)
		return st.Elapsed, err
	}},
	{"upc-crash-retire", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
		}}
		sums := make([]float64, 8)
		st, err := upc.Run(upcCfg(sched, tr), func(th *upc.Thread) {
			th.Barrier()
			switch {
			case th.ID < 4:
				// Survivors park in a barrier that threads 6 and 7
				// release by retiring, then in a reduction that threads
				// 4 and 5 release by retiring.
				th.Barrier()
				sums[th.ID] = upc.AllReduceSum(th, float64(th.ID+1))
			case th.ID < 6:
				th.Barrier()
				th.P.Advance(sim.Time(3*sim.Millisecond) - th.Now())
				if th.Failed() {
					th.Retire()
				}
			default:
				th.P.Advance(2 * sim.Millisecond)
				if th.Failed() {
					th.Retire()
				}
			}
		})
		fmt.Fprintln(w, sums)
		return st.Elapsed, err
	}},
	{"upc-churn-rejoin-stale", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpCrash, At: 0.001, Until: 0.00105, Node: 1, Src: -1, Dst: -1},
		}}
		errs := make([]string, 8)
		sums := make([]float64, 8)
		st, err := upc.Run(upcCfg(sched, tr), func(th *upc.Thread) {
			const block = 1 << 16
			s := upc.Alloc[int](th, 8*block, 8, block)
			th.Barrier()
			switch {
			case th.ID == 0:
				th.P.Advance(900 * sim.Microsecond)
				errs[0] = errString(upc.PutTErr(th, s, 4, 0, make([]int, 1<<15)))
			case th.ID >= 4:
				th.P.Advance(1020 * sim.Microsecond)
				if th.Failed() {
					th.Retire()
					if th.ReviveScheduled() {
						th.AwaitRevive()
						th.Rejoin()
					}
				}
				errs[th.ID] = errString(upc.PutTErr(th, s, th.ID-4, 0, []int{th.ID}))
			default:
				th.P.Advance(2 * sim.Millisecond)
			}
			th.Barrier()
			sums[th.ID] = upc.AllReduceSum(th, float64(th.ID))
		})
		fmt.Fprintln(w, errs, sums)
		return st.Elapsed, err
	}},
	{"mpi-nack-alltoall", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		// Every cross-node payload of the exchange is dropped; the
		// receivers pull them back once the window closes.
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpDrop, At: 0, Until: 0.002, Prob: 1, Src: -1, Dst: -1},
		}}
		errs := make([]string, 4)
		st, err := mpi.Run(mpiCfg(sched, tr), func(c *mpi.Comm) {
			send := make([][]byte, c.Size)
			for d := range send {
				send[d] = []byte{byte(4*c.Rank + d)}
			}
			var got [][]byte
			aerr := recovered(func() { got = c.Alltoall(send) })
			errs[c.Rank] = fmt.Sprintf("%s %v %s", errString(aerr), got, errString(recovered(c.Barrier)))
		})
		fmt.Fprintln(w, errs)
		return st.Elapsed, err
	}},
	{"mpi-crash-ladder", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
		}}
		errs := make([]string, 4)
		st, err := mpi.Run(mpiCfg(sched, tr), func(c *mpi.Comm) {
			c.Barrier()
			pre := c.AllreduceSum(float64(c.Rank))
			c.P.Advance(2 * sim.Millisecond)
			if c.Rank >= 2 {
				return // the ranks on the crashed node stop participating
			}
			berr := recovered(c.Barrier)
			aerr := recovered(func() { c.AllreduceSum(1) })
			errs[c.Rank] = fmt.Sprintf("%v %s %s", pre, errString(berr), errString(aerr))
		})
		fmt.Fprintln(w, errs)
		return st.Elapsed, err
	}},
	{"group-crash-timeout", func(t *testing.T, tr trace.Tracer, w io.Writer) (sim.Duration, error) {
		sched := &fault.Schedule{Actions: []fault.Action{
			{Op: fault.OpCrash, At: 0.001, Node: 1, Src: -1, Dst: -1},
		}}
		errs := make([]string, 8)
		st, err := upc.Run(upcCfg(sched, tr), func(th *upc.Thread) {
			all, gerr := group.New(th, []int{0, 1, 2, 3, 4, 5, 6, 7})
			if gerr != nil {
				t.Error(gerr)
				return
			}
			all.Barrier()
			th.P.Advance(2 * sim.Millisecond)
			if th.Failed() {
				th.Retire()
				return
			}
			errs[th.ID] = errString(all.BarrierErr())
			// Only the {0,1} pair syncs; thread 1's no-show drives thread 0's timeout ladder.
			if th.ID > 1 {
				return
			}
			pair, gerr := group.New(th, []int{0, 1})
			if gerr != nil {
				t.Error(gerr)
				return
			}
			// A deliberate no-show, exercising the barrier timeout ladder.
			if th.ID == 1 {
				return
			}
			errs[0] += " " + errString(pair.BarrierErr())
		})
		fmt.Fprintln(w, errs)
		return st.Elapsed, err
	}},
}

// TestRecoveryGolden plays every recovery scenario under a digest that
// observes completion edges and compares one hash over all of them with
// recoveryGolden: a refactor of the recovery paths must keep every
// event, its time and its order.
func TestRecoveryGolden(t *testing.T) {
	h := sha256.New()
	for _, sc := range recoveryScenarios {
		d := edgeDigest{trace.NewDigest()}
		end, err := sc.run(t, d, h)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		fmt.Fprintf(h, "%s %s %d %d\n", sc.name, d, d.Events(), end)
		t.Logf("%s: digest %s (%d events), end %v", sc.name, d, d.Events(), end)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != recoveryGolden {
		t.Errorf("recovery scenarios hash to %s, want %s", got, recoveryGolden)
	}
}
