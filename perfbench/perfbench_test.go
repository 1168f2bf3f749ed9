package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// smallScale runs every workload in well under a second.
var smallScale = scale{utsNodes: 20000, utsThreads: []int{16, 32}, ftClass: "S", ftSplit: 8, ftOverlap: 4}

func TestMain(m *testing.M) {
	if v := os.Getenv(probeEnv); v != "" {
		os.Exit(probe(v))
	}
	flag.Parse()
	// The op-cost benchmarks only need to run, not to be precise.
	if err := flag.Set("test.benchtime", "20ms"); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smallGolden records an oracle for smallScale into a temporary file.
func smallGolden(t *testing.T) (path, dir string) {
	t.Helper()
	dir = t.TempDir()
	path = filepath.Join(dir, "golden.json")
	if err := recordGolden(path, smallScale, dir); err != nil {
		t.Fatal(err)
	}
	return path, dir
}

type benchMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func benchmarkMetrics(t *testing.T) (endToEnd, perLayer []benchMetric) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []benchMetric `json:"end_to_end"`
		PerLayer []benchMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func TestEveryMetricPrintsWithItsUnit(t *testing.T) {
	golden, dir := smallGolden(t)
	endToEnd, perLayer := benchmarkMetrics(t)
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			opt := options{workload: name, seed: 3, seconds: 0.01, traced: traced,
				golden: golden, dir: dir, scale: smallScale}
			res, err := measure(opt)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d",
					name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s has unit %q, BENCHMARK.json says %q",
						name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d",
					name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

func TestOracleMismatchIsAFailedOperation(t *testing.T) {
	golden, dir := smallGolden(t)
	for _, name := range workloadNames {
		g, err := loadGolden(golden)
		if err != nil {
			t.Fatal(err)
		}
		w, err := buildWorkload(name, smallScale, g.DefaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		g.Sims[w.sims[0].key] = "perturbed"
		b, err := json.Marshal(g)
		if err != nil {
			t.Fatal(err)
		}
		bad := filepath.Join(dir, "perturbed.json")
		if err := os.WriteFile(bad, b, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := measure(options{workload: name, seed: g.DefaultSeed, seconds: 0.01,
			golden: bad, dir: dir, scale: smallScale})
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: perturbed golden gave correct=%v failed=%d of %d",
				name, res.Correct, res.Failed, res.Attempted)
		}
	}
}
