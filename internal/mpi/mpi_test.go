package mpi

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

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

// TestSendRecvDelivery shifts one payload around a ring of 4 ranks on 2
// nodes: every exchange crosses sm or the conduit and lands intact.
func TestSendRecvDelivery(t *testing.T) {
	_, err := Run(cfg(4, 2), func(c *Comm) {
		next := (c.Rank + 1) % c.Size
		prev := (c.Rank + c.Size - 1) % c.Size
		payload := []byte(fmt.Sprintf("from-%d", c.Rank))
		got := c.sendrecv(next, int64(len(payload)), payload, prev)
		if want := fmt.Sprintf("from-%d", prev); string(got) != want {
			t.Errorf("rank %d got %q, want %q", c.Rank, got, want)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendOrderPreservedPerSource shifts ten shrinking payloads around
// a ring of 3 ranks whose rank 1 starts late: rank 0 posts a second
// payload to rank 1 before rank 1 matches the first, and each receive
// must still match the source's oldest post.
func TestSendOrderPreservedPerSource(t *testing.T) {
	_, err := Run(cfg(3, 1), func(c *Comm) {
		next := (c.Rank + 1) % c.Size
		prev := (c.Rank + c.Size - 1) % c.Size
		if c.Rank == 1 {
			c.P.Advance(sim.Millisecond)
		}
		for i := 0; i < 10; i++ {
			out := bytes.Repeat([]byte{byte(i)}, (10-i)*512)
			got := c.sendrecv(next, int64(len(out)), out, prev)
			if len(got) != len(out) || got[0] != byte(i) {
				t.Errorf("rank %d exchange %d got %d bytes of %d (order violated)",
					c.Rank, i, len(got), got[0])
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestExchangeNoDeadlockLargeMessages: both ranks exchange 1 MB at once;
// posting before receiving keeps the pair from deadlocking.
func TestExchangeNoDeadlockLargeMessages(t *testing.T) {
	_, err := Run(cfg(2, 1), func(c *Comm) {
		partner := 1 - c.Rank
		out := bytes.Repeat([]byte{byte(c.Rank + 1)}, 1<<20)
		in := c.sendrecv(partner, int64(len(out)), out, partner)
		if len(in) != 1<<20 || in[0] != byte(partner+1) {
			t.Errorf("rank %d: bad exchange payload", c.Rank)
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
