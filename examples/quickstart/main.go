// Quickstart: simulate Software-Based fault-tolerant routing on an 8-ary
// 2-cube with three random node faults and print the headline metrics for
// every algorithm in the routing registry.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/routing"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(stdout io.Writer) error {
	// An 8x8 torus offered 0.006 messages/node/cycle of uniform traffic.
	cfg := core.DefaultConfig(8, 2, 0.006)
	cfg.V = 6                  // virtual channels per physical channel
	cfg.MsgLen = 32            // flits per message
	cfg.Faults.RandomNodes = 3 // random failed nodes (network stays connected)
	cfg.Seed = 42

	for _, info := range routing.Algorithms() {
		cfg.Algorithm = info.Name
		res, err := core.Run(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%-18s mean latency %6.1f cycles  p99 %5.0f  throughput %.5f msg/node/cycle\n",
			info.Name, res.MeanLatency, res.P99, res.Throughput)
		fmt.Fprintf(stdout, "%-18s absorbed %d times, %d via stops, %d messages delivered\n",
			"", res.QueuedFault, res.QueuedVia, res.Delivered)
	}
	return nil
}
