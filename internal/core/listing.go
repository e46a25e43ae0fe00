package core

import (
	"flag"
	"fmt"
	"io"

	"repro/internal/fault"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// PrintRegistries writes the five registry sections shared by the CLIs'
// -list output: topologies, routing algorithms, destination patterns,
// arrival sources and fault schedules. prefix qualifies the
// pattern/traffic flag names in the section headers for commands
// (swtrace) that do not take those flags themselves.
func PrintRegistries(w io.Writer, prefix string) {
	fmt.Fprintln(w, "topologies (-topo):")
	for _, info := range topology.Topologies() {
		fmt.Fprintf(w, "  %-28s %s\n", info.Usage, info.Description)
	}
	fmt.Fprintln(w, "  every topology accepts a ,latmap=<file> per-link latency overlay (CSV: src,port,latency)")
	fmt.Fprintln(w, "\nrouting algorithms (-alg):")
	for _, info := range routing.Algorithms() {
		fmt.Fprintf(w, "  %-18s V>=%d  %s\n", info.Name, info.MinV, info.Description)
	}
	fmt.Fprintf(w, "\ndestination patterns (%s-pattern):\n", prefix)
	for _, info := range traffic.Patterns() {
		fmt.Fprintf(w, "  %-40s %s\n", info.Usage, info.Description)
	}
	fmt.Fprintf(w, "\narrival sources (%s-traffic):\n", prefix)
	for _, info := range traffic.Sources() {
		fmt.Fprintf(w, "  %-52s %s\n", info.Usage, info.Description)
	}
	fmt.Fprintf(w, "\nfault schedules (%s-faults-schedule):\n", prefix)
	for _, info := range fault.Schedules() {
		fmt.Fprintf(w, "  %-44s %s\n", info.Usage, info.Description)
	}
}

// BindFlags defines on fs the nine flags that decide what network, faults
// and router a run builds (-topo -k -n -alg -v -m -faults -shape -seed),
// defaulting to def's values, and returns the function that, after
// fs.Parse, yields def with them applied and the network it names. -topo
// overrides -k/-n (a torus); -shape stamps a fault.ParseShapeSpec region
// into plane (0,1). The function's errors are usage errors (exit 2), a bad
// -shape and Config.CheckWidths' -v and -m among them.
func BindFlags(fs *flag.FlagSet, def Config) func() (Config, topology.Network, error) {
	cfg := def
	net, _ := def.BuildTopology() // def is the caller's literal
	k := fs.Int("k", net.K(), "radix (nodes per dimension); shorthand for -topo torus:k=...")
	n := fs.Int("n", net.N(), "dimensions; shorthand for -topo torus:n=...")
	topo := fs.String("topo", "", "topology spec from the registry (overrides -k/-n; see -list)")
	fs.StringVar(&cfg.Algorithm, "alg", def.Algorithm, "routing algorithm (see -list)")
	fs.IntVar(&cfg.V, "v", def.V, "virtual channels per physical channel")
	fs.IntVar(&cfg.MsgLen, "m", def.MsgLen, "message length in flits")
	fs.IntVar(&cfg.Faults.RandomNodes, "faults", def.Faults.RandomNodes, "random faulty nodes")
	shape := fs.String("shape", "", "fault region in plane (0,1): bar|doublebar|rect|L|U|T|plus|H[:a=,b=,t=,ax=,ay=] (bare rect|T|plus|L|U: its Fig. 5 region)")
	fs.Uint64Var(&cfg.Seed, "seed", def.Seed, "random seed")
	return func() (Config, topology.Network, error) {
		cfg.Topology = fmt.Sprintf("torus:k=%d,n=%d", *k, *n)
		if *topo != "" {
			cfg.Topology = *topo
		}
		if *shape != "" {
			spec, err := fault.ParseShapeSpec(*shape)
			if err != nil {
				return cfg, nil, err
			}
			cfg.Faults.Shapes = []ShapeStamp{{Spec: spec, DimA: 0, DimB: 1}}
		}
		if err := cfg.CheckWidths(); err != nil {
			return cfg, nil, err
		}
		net, err := topology.NewNetwork(cfg.Topology)
		return cfg, net, err
	}
}
