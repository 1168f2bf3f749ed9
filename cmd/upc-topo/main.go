// Command upc-topo prints the modeled cluster topologies and conduit
// parameters used throughout the reproduction.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fabric"
	"repro/internal/report"
	"repro/internal/topo"
)

func main() {
	flag.Parse()
	var rows [][]string
	for _, name := range topo.Presets() {
		m, _ := topo.ByName(name)
		rows = append(rows, []string{
			m.Name,
			fmt.Sprint(m.Nodes),
			fmt.Sprintf("%dx%dx%d", m.SocketsPerNode, m.CoresPerSocket, m.ThreadsPerCore),
			fmt.Sprintf("%.2f", m.ClockGHz),
			report.GBps(m.MemBWSocket),
			fmt.Sprintf("%.2f", m.NUMAFactor),
			fmt.Sprintf("%.2f", m.SMTThroughput),
			m.DefaultConduit,
		})
	}
	report.Table(os.Stdout, "Machine models (Table 2.1)",
		[]string{"machine", "nodes", "sockets x cores x smt", "GHz", "mem GB/s/socket",
			"numa", "smt-gain", "conduit"}, rows)
	fmt.Println()

	rows = nil
	for _, name := range fabric.Conduits() {
		c, _ := fabric.ConduitByName(name)
		rows = append(rows, []string{
			c.Name, c.Latency.String(), c.SendOverhead.String(), c.MsgGap.String(),
			report.GBps(c.ConnBW), report.GBps(c.NICBW), report.GBps(c.LoopbackBW),
			fmt.Sprintf("%.3f", c.NICBeta),
		})
	}
	report.Table(os.Stdout, "Network conduit models",
		[]string{"conduit", "latency", "overhead", "gap", "conn GB/s", "nic GB/s",
			"loopback GB/s", "beta"}, rows)
}
