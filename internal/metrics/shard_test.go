// The manifest contract the equivalence gate relies on: a run
// on the node-sharded parallel engine aggregates to a byte-identical
// manifest file at every -shards worker count. The test is the
// in-process version of its comparison of upc-stream's -metrics output.
package metrics

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/apps/stream"
	"repro/internal/sim"
)

// shardManifest runs one small sharded twisted-triad with the given
// worker-thread count and returns the serialized manifest bytes.
func shardManifest(t *testing.T, workers int) []byte {
	t.Helper()
	old := sim.ShardWorkers()
	sim.SetShardWorkers(workers)
	defer sim.SetShardWorkers(old)
	c := NewCollection()
	if _, err := stream.RunTwistedSharded(stream.ShardConfig{
		Nodes:          4,
		ThreadsPerNode: 2,
		ElemsPerThrd:   1 << 10,
		Seed:           42,
		Tracer:         c,
	}); err != nil {
		t.Fatalf("RunTwistedSharded(workers=%d): %v", workers, err)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := c.Manifest("upc-test", map[string]string{"table": "3.1"}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestShardedManifestWorkerCountInvariance(t *testing.T) {
	base := shardManifest(t, 1)
	if len(base) == 0 {
		t.Fatal("empty manifest")
	}
	for _, workers := range []int{2, 4} {
		if got := shardManifest(t, workers); string(got) != string(base) {
			t.Errorf("manifest bytes at %d workers differ from 1 worker", workers)
		}
	}
}
