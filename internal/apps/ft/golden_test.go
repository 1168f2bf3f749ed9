package ft

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"testing"

	"repro/internal/topo"
	"repro/internal/trace"
)

// ftGolden is the SHA-256 over every pinned model-mode run's Elapsed,
// PerIter, Comm, sorted Phases and trace digest, followed by every
// RunExchange mode's Call, Wait, Total and trace digest. It pins the
// virtual-time behaviour of the FT slab code and its exchanges, so a
// refactor of either runtime's worker must leave it unmoved.
const ftGolden = "1ae4b2b178e7bc95011f73e6a8e41dbfa579f942c31615a9df741e313d6e58a9"

// goldenRuns are the pinned model-mode configurations: every runtime,
// both exchange algorithms and one hybrid per Impl, on class T (2 KB
// MPI slices at 8 ranks) and class S.
func goldenRuns() []Config {
	var out []Config
	for _, name := range []string{"T", "S"} {
		cls, _ := ClassByName(name)
		base := Config{Machine: topo.Lehman(), Class: cls, Threads: 8, PerNode: 4, Seed: 1}
		with := func(f func(c *Config)) Config {
			c := base
			f(&c)
			return c
		}
		out = append(out,
			with(func(c *Config) { c.Variant = MPIFortran }),
			with(func(c *Config) { c.Variant = UPCProcesses }),
			with(func(c *Config) { c.Variant, c.Impl = UPCProcesses, Overlap }),
			with(func(c *Config) { c.Variant = UPCPthreads }),
			with(func(c *Config) {
				c.Variant, c.Threads, c.PerNode, c.SubThreads = HybridOMP, 4, 2, 2
			}),
			with(func(c *Config) {
				c.Variant, c.Impl, c.Threads, c.PerNode, c.SubThreads = HybridPool, Overlap, 4, 2, 2
			}),
		)
	}
	return out
}

// writeGolden runs every pinned configuration and writes one line per
// run to w.
func writeGolden(t *testing.T, w io.Writer) {
	for _, cfg := range goldenRuns() {
		dg := trace.NewDigest()
		cfg.Tracer = dg
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v %v/%v: %v", cfg.Class.Name, cfg.Variant, cfg.Impl, err)
		}
		fmt.Fprintf(w, "%s %v/%v threads=%d/%d subs=%d: elapsed=%d per=%d comm=%d",
			cfg.Class.Name, cfg.Variant, cfg.Impl, cfg.Threads, cfg.PerNode, cfg.SubThreads,
			r.Elapsed, r.PerIter, r.Comm)
		for _, k := range sortedKeys(r.Phases) {
			fmt.Fprintf(w, " %s=%d", k, r.Phases[k])
		}
		fmt.Fprintf(w, " digest=%s/%d\n", dg, dg.Events())
	}
	cls, _ := ClassByName("S")
	for _, mode := range ExchangeModes() {
		for _, async := range []bool{false, true} {
			dg := trace.NewDigest()
			r, err := RunExchange(ExchangeConfig{
				Class: cls, Threads: 8, PerNode: 4,
				Mode: mode, Async: async, Repeats: 2, Seed: 1, Tracer: dg,
			})
			if err != nil {
				t.Fatalf("exchange %v async=%v: %v", mode, async, err)
			}
			fmt.Fprintf(w, "exchange %v async=%v: call=%d wait=%d total=%d digest=%s/%d\n",
				mode, async, r.Call, r.Wait, r.Total, dg, dg.Events())
		}
	}
}

// TestFTGolden pins the model-mode results and event streams of both
// runtimes' FT workers and of the Figure 3.4 exchange study.
func TestFTGolden(t *testing.T) {
	var buf bytes.Buffer
	writeGolden(t, &buf)
	t.Log("\n" + buf.String())
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != ftGolden {
		t.Errorf("FT golden hash = %s, want %s", got, ftGolden)
	}
}
