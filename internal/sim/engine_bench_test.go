// The engine microbenchmarks pin the cost of the substrate's hot path.
// The bodies live in internal/simbench so cmd/upc-bench can run the same
// code and record ns/op and allocs/op in BENCH_sim.json; CI fails on
// >20% ns/op regression. This file only registers them with go test.
// External test package: an in-package test could not import simbench
// (simbench imports sim).
package sim_test

import (
	"testing"

	"repro/internal/simbench"
)

func BenchmarkPingPongYield(b *testing.B)     { simbench.PingPongYield(b) }
func BenchmarkAdvance(b *testing.B)           { simbench.Advance(b) }
func BenchmarkBarrierStorm1k(b *testing.B)    { simbench.BarrierStorm1k(b) }
func BenchmarkServerDelay(b *testing.B)       { simbench.ServerDelay(b) }
func BenchmarkSharedLink32Flows(b *testing.B) { simbench.SharedLink32Flows(b) }
func BenchmarkFabricPut(b *testing.B)         { simbench.FabricPut(b) }
func BenchmarkFabricFlows4096(b *testing.B)   { simbench.FabricFlows4096(b) }
func BenchmarkObserverEmit(b *testing.B)      { simbench.ObserverEmit(b) }
func BenchmarkUPCPutGet(b *testing.B)         { simbench.UPCPutGet(b) }
