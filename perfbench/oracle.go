package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
)

// golden is the output oracle: digests of every simulation's virtual-time
// results, the workloads' exact event counts, and the observed sweep's
// trace digest and manifest hash at the default seed.
type golden struct {
	DefaultSeed int64 `json:"default_seed"`
	// Sims maps a simulation key to the digest of its canonical outcome.
	Sims map[string]string `json:"sims"`
	// Events maps "<workload> <variant>" to the workload's event count: a
	// plain-sink traced run for serial workloads, the observed stream for
	// sweep-observed.
	Events map[string]int64 `json:"events"`
	// Sweep holds sweep-observed's outputs at DefaultSeed.
	Sweep sweepGolden `json:"sweep_default_seed"`
}

type sweepGolden struct {
	TraceDigest    string `json:"trace_digest"`
	ManifestSHA256 string `json:"manifest_sha256"`
}

func outcomeDigest(canon string) string {
	h := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(h[:12])
}

func loadGolden(path string) (*golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	g := &golden{}
	if err := json.Unmarshal(b, g); err != nil {
		return nil, fmt.Errorf("oracle: parsing %s: %w", path, err)
	}
	return g, nil
}

func eventsKey(w workload) string { return w.name + " " + w.variant }

// check verifies one round against the oracle and returns how many of its
// simulations failed, reporting each failure on stderr. A simulation
// fails when it errs, when its digest differs from the golden one, or
// when the strategies disagree on the tree; an observed round also fails
// whole when its stream or manifest differs.
func (g *golden) check(w workload, seed int64, r round) int {
	bad := make([]bool, len(w.sims))
	fail := func(i int, format string, args ...any) {
		bad[i] = true
		fmt.Fprintf(os.Stderr, "oracle: %s: %s: %s\n", w.name, w.sims[i].key, fmt.Sprintf(format, args...))
	}
	var tree int64
	for i, s := range w.sims {
		if r.errs[i] != nil {
			fail(i, "%v", r.errs[i])
			continue
		}
		o := r.outs[i]
		if want, got := g.Sims[s.key], outcomeDigest(o.canon); want != got {
			fail(i, "outcome digest %s, golden %q (%s)", got, want, o.canon)
		}
		if o.nodes != 0 {
			if tree == 0 {
				tree = o.nodes
			} else if o.nodes != tree {
				fail(i, "counted %d nodes, another strategy counted %d", o.nodes, tree)
			}
		}
	}
	if w.observed && r.events > 0 {
		wrong := ""
		if want := g.Events[eventsKey(w)]; r.events != want {
			wrong = fmt.Sprintf("stream has %d events, golden %d", r.events, want)
		} else if seed == g.DefaultSeed {
			if got := fmt.Sprintf("%016x", r.digest); got != g.Sweep.TraceDigest {
				wrong = fmt.Sprintf("TraceDigest %s, golden %s", got, g.Sweep.TraceDigest)
			} else if r.manifestSHA != g.Sweep.ManifestSHA256 {
				wrong = fmt.Sprintf("manifest SHA-256 %s, golden %s", r.manifestSHA, g.Sweep.ManifestSHA256)
			}
		}
		if wrong != "" {
			for i := range bad {
				fail(i, "%s", wrong)
			}
		}
	}
	n := 0
	for _, b := range bad {
		if b {
			n++
		}
	}
	return n
}

// recordGolden runs every workload once per tree variant and writes the
// oracle to path. Regenerate it only when a change is meant to alter the
// model's outputs, and say so in that change.
func recordGolden(path string, sc scale, dir string) error {
	g := &golden{DefaultSeed: 1, Sims: map[string]string{}, Events: map[string]int64{}}
	for seed := int64(1); seed <= int64(len(treeSeeds)); seed++ {
		for _, name := range workloadNames {
			w, err := buildWorkload(name, sc, seed)
			if err != nil {
				return err
			}
			if _, done := g.Events[eventsKey(w)]; done {
				continue
			}
			runtime.GOMAXPROCS(w.procs)
			var r round
			if w.observed {
				if r, _, err = runObserved(w, seed, dir, nil); err != nil {
					return err
				}
				g.Events[eventsKey(w)] = r.events
				if seed == g.DefaultSeed {
					g.Sweep = sweepGolden{fmt.Sprintf("%016x", r.digest), r.manifestSHA}
				}
			} else {
				r, g.Events[eventsKey(w)] = plainEvents(w)
			}
			for i, s := range w.sims {
				if r.errs[i] != nil {
					return fmt.Errorf("%s: %s: %w", name, s.key, r.errs[i])
				}
				d := outcomeDigest(r.outs[i].canon)
				if prev, ok := g.Sims[s.key]; ok && prev != d {
					return fmt.Errorf("%s: %s: outcome %s differs from another workload's %s", name, s.key, d, prev)
				}
				g.Sims[s.key] = d
			}
		}
	}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
