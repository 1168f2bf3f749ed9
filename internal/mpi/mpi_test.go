package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/topo"
)

func cfg(ranks, perNode int) Config {
	return Config{
		Machine:      topo.Lehman(),
		Ranks:        ranks,
		RanksPerNode: perNode,
		Seed:         1,
	}
}

func TestSendRecvDelivery(t *testing.T) {
	_, err := Run(cfg(4, 2), func(c *Comm) {
		next := (c.Rank + 1) % c.Size
		prev := (c.Rank + c.Size - 1) % c.Size
		payload := []byte(fmt.Sprintf("from-%d", c.Rank))
		if c.Rank%2 == 0 {
			c.Send(next, payload)
			got := c.Recv(prev)
			if want := fmt.Sprintf("from-%d", prev); string(got) != want {
				t.Errorf("rank %d got %q, want %q", c.Rank, got, want)
			}
		} else {
			got := c.Recv(prev)
			if want := fmt.Sprintf("from-%d", prev); string(got) != want {
				t.Errorf("rank %d got %q, want %q", c.Rank, got, want)
			}
			c.Send(next, payload)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendOrderPreservedPerSource(t *testing.T) {
	_, err := Run(cfg(2, 2), func(c *Comm) {
		if c.Rank == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, []byte{byte(i)})
			}
		} else {
			for i := 0; i < 10; i++ {
				got := c.Recv(0)
				if got[0] != byte(i) {
					t.Errorf("message %d arrived as %d (order violated)", i, got[0])
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendSnapshotsBuffer(t *testing.T) {
	_, err := Run(cfg(2, 1), func(c *Comm) {
		if c.Rank == 0 {
			buf := []byte{1, 2, 3}
			c.Send(1, buf)
			buf[0] = 99 // must not affect the in-flight payload
		} else {
			got := c.Recv(0)
			if got[0] != 1 {
				t.Errorf("payload corrupted by post-send mutation: %v", got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerVsRendezvousSendCost(t *testing.T) {
	// A small (eager) send must return much sooner than a 1 MB
	// (rendezvous) send to an unready receiver.
	var eager, rendezvous sim.Duration
	_, err := Run(cfg(2, 1), func(c *Comm) {
		if c.Rank == 0 {
			start := c.P.Now()
			c.Send(1, make([]byte, 64))
			eager = c.P.Now() - start
			start = c.P.Now()
			c.Send(1, make([]byte, 1<<20))
			rendezvous = c.P.Now() - start
		} else {
			c.P.Advance(50 * sim.Millisecond) // receiver shows up late
			c.Recv(0)
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if eager >= rendezvous/10 {
		t.Errorf("eager send %v should be far cheaper than rendezvous %v", eager, rendezvous)
	}
}

func TestSendrecvNoDeadlockLargeMessages(t *testing.T) {
	_, err := Run(cfg(2, 1), func(c *Comm) {
		partner := 1 - c.Rank
		out := bytes.Repeat([]byte{byte(c.Rank + 1)}, 1<<20)
		in := c.Sendrecv(partner, out, partner)
		if len(in) != 1<<20 || in[0] != byte(partner+1) {
			t.Errorf("rank %d: bad sendrecv payload", c.Rank)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierAndReductions(t *testing.T) {
	_, err := Run(cfg(6, 3), func(c *Comm) {
		c.P.Advance(sim.Duration(c.Rank) * sim.Millisecond)
		c.Barrier()
		if got := c.AllreduceSum(float64(c.Rank)); got != 15 {
			t.Errorf("AllreduceSum = %g, want 15", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func alltoallCorrect(t *testing.T, ranks, perNode, msg int) {
	t.Helper()
	_, err := Run(cfg(ranks, perNode), func(c *Comm) {
		send := make([][]byte, c.Size)
		for d := range send {
			send[d] = bytes.Repeat([]byte{byte(c.Rank*16 + d)}, msg)
		}
		got := c.Alltoall(send)
		for s := range got {
			want := byte(s*16 + c.Rank)
			if len(got[s]) != msg {
				t.Errorf("rank %d: slice from %d has %d bytes, want %d", c.Rank, s, len(got[s]), msg)
				continue
			}
			for _, b := range got[s] {
				if b != want {
					t.Errorf("rank %d: slice from %d corrupted (%d != %d)", c.Rank, s, b, want)
					break
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallPairwiseCorrect(t *testing.T) {
	alltoallCorrect(t, 4, 1, 128)
	alltoallCorrect(t, 6, 3, 64)
}

func TestAlltoallPropertyPermutation(t *testing.T) {
	// Property: Alltoall is a transpose — rank r's slice d equals what
	// rank d receives at index r, for random sizes and shapes.
	f := func(perNodeRaw, nodesRaw, msgRaw uint8) bool {
		perNode := int(perNodeRaw)%4 + 1
		nodes := int(nodesRaw)%3 + 1
		msg := int(msgRaw)%64 + 1
		ranks := perNode * nodes
		if ranks < 2 {
			return true
		}
		ok := true
		_, err := Run(cfg(ranks, perNode), func(c *Comm) {
			send := make([][]byte, c.Size)
			for d := range send {
				send[d] = bytes.Repeat([]byte{byte(c.Rank*13 + d)}, msg)
			}
			got := c.Alltoall(send)
			for s := range got {
				for _, b := range got[s] {
					if b != byte(s*13+c.Rank) {
						ok = false
					}
				}
			}
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestAlltoallModelMatchesPayload checks that model mode is the payload
// exchange without the payloads: AlltoallModel on a slice size must end
// at the same virtual time as Alltoall on uniform slices of that size
// (16/4 at 512 B, 12/4 at 32 B, 8/2 at 8 KB).
func TestAlltoallModelMatchesPayload(t *testing.T) {
	for _, tc := range []struct{ ranks, perNode, slice int }{
		{16, 4, 512}, {12, 4, 32}, {8, 2, 8192},
	} {
		run := func(model bool) sim.Duration {
			st, err := Run(cfg(tc.ranks, tc.perNode), func(c *Comm) {
				if model {
					c.AlltoallModel(int64(tc.slice))
					return
				}
				send := make([][]byte, c.Size)
				for d := range send {
					send[d] = make([]byte, tc.slice)
				}
				c.Alltoall(send)
			})
			if err != nil {
				t.Fatal(err)
			}
			return st.Elapsed
		}
		if payload, model := run(false), run(true); payload != model {
			t.Errorf("%d ranks, %d per node, %d B slices: payload ends at %v, model at %v",
				tc.ranks, tc.perNode, tc.slice, payload, model)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}, func(*Comm) {}); err == nil {
		t.Error("nil machine must error")
	}
	if _, err := Run(Config{Machine: topo.Lehman()}, func(*Comm) {}); err == nil {
		t.Error("zero ranks must error")
	}
}

// TestIsendIrecvWaitall drives the non-blocking send path (isend, as
// Sendrecv uses it): every rank starts a send to every peer, receives
// from each in turn, and only then waits for its own sends to leave the
// buffer.
func TestIsendIrecvWaitall(t *testing.T) {
	_, err := Run(cfg(4, 2), func(c *Comm) {
		var ops []*fabric.NetOp
		for d := 0; d < c.Size; d++ {
			if d != c.Rank {
				ops = append(ops, c.isend(d, []byte{byte(c.Rank)}))
			}
		}
		for src := 0; src < c.Size; src++ {
			if src == c.Rank {
				continue
			}
			if got := c.Recv(src); len(got) != 1 || got[0] != byte(src) {
				t.Errorf("rank %d: receive from %d got %v", c.Rank, src, got)
			}
		}
		for _, op := range ops {
			op.WaitLocal(c.P)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerThresholdBoundary(t *testing.T) {
	// At exactly the threshold the send is still eager; one byte more and
	// it is rendezvous (observable as a much longer blocking send to an
	// unready receiver).
	var atT, aboveT sim.Duration
	_, err := Run(cfg(2, 1), func(c *Comm) {
		if c.Rank == 0 {
			start := c.P.Now()
			c.Send(1, make([]byte, EagerThreshold))
			atT = c.P.Now() - start
			start = c.P.Now()
			c.Send(1, make([]byte, EagerThreshold+1))
			aboveT = c.P.Now() - start
		} else {
			c.P.Advance(100 * sim.Millisecond)
			c.Recv(0)
			c.Recv(0)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if atT >= aboveT {
		t.Errorf("eager (%v) must return before rendezvous (%v)", atT, aboveT)
	}
}
