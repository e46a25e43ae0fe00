// Command swtrace follows a single message through a faulted network and
// prints its complete event history: injection, every hop, absorptions,
// via stops, re-injections and delivery. It is the debugging lens onto the
// Software-Based algorithm's behaviour around a specific fault pattern.
//
//	swtrace -k 8 -n 2 -faults 5 -seed 4 -src 0,0 -dst 5,5
//	swtrace -k 8 -n 2 -shape U -src 0,3 -dst 4,3 -alg adaptive
//	swtrace -topo mesh:k=8,n=2 -alg planar-adaptive -faults 4 -src 0,0 -dst 7,7
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/viz"
)

func main() {
	var (
		k       = flag.Int("k", 8, "radix; shorthand for -topo torus:k=...")
		n       = flag.Int("n", 2, "dimensions; shorthand for -topo torus:n=...")
		topo    = flag.String("topo", "", "topology spec from the registry (overrides -k/-n; see -list)")
		v       = flag.Int("v", 4, "virtual channels")
		m       = flag.Int("m", 16, "message length (flits)")
		faults  = flag.Int("faults", 0, "random faulty nodes")
		shape   = flag.String("shape", "", "stamp a Fig. 5 region instead: rect|T|plus|L|U")
		seed    = flag.Uint64("seed", 1, "seed for fault placement")
		srcFlag = flag.String("src", "0,0", "source coordinates, comma-separated")
		dstFlag = flag.String("dst", "", "destination coordinates (required)")
		algFlag = flag.String("alg", "det", "routing algorithm from the registry")
		list    = flag.Bool("list", false, "list registered topologies, algorithms, patterns and sources, then exit")
	)
	flag.Parse()

	if *list {
		core.PrintRegistries(os.Stdout, "swsim ")
		return
	}

	spec := *topo
	if spec == "" {
		spec = fmt.Sprintf("torus:k=%d,n=%d", *k, *n)
	}
	t, err := topology.NewNetwork(spec)
	if err != nil {
		fatal(err)
	}
	src, err := parseCoords(t, *srcFlag)
	if err != nil {
		fatal(err)
	}
	dst, err := parseCoords(t, *dstFlag)
	if err != nil {
		fatal(fmt.Errorf("need -dst: %w", err))
	}

	fs := fault.NewSet(t)
	switch {
	case *shape != "":
		specs := fault.PaperFig5Specs()
		name := map[string]string{"rect": "rect-shaped", "T": "T-shaped", "plus": "Plus-shaped", "L": "L-shaped", "U": "U-shaped"}[*shape]
		spec, ok := specs[name]
		if !ok {
			fatal(fmt.Errorf("unknown shape %q", *shape))
		}
		if _, err := fault.StampShape(fs, 0, 0, 1, spec); err != nil {
			fatal(err)
		}
	case *faults > 0:
		fs, err = fault.Random(t, *faults, rng.New(*seed), fault.RandomOptions{
			KeepConnected: true, Avoid: []topology.NodeID{src, dst},
		})
		if err != nil {
			fatal(err)
		}
	}
	if fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
		fatal(fmt.Errorf("source or destination is faulty"))
	}

	alg, err := routing.New(*algFlag, t, fs, *v)
	if err != nil {
		fatal(err)
	}
	mode := alg.BaseMode()

	if t.N() == 2 {
		fmt.Print(viz.RenderPlane(fs, 0, 0, 1))
	}
	fmt.Print(viz.RenderRegions(fs))
	fmt.Printf("tracing %s -> %s (%s, M=%d, V=%d)\n\n",
		t.FormatNode(src), t.FormatNode(dst), mode, *m, *v)

	rec := trace.NewRecorder()
	col := metrics.NewCollector(0)
	p := network.DefaultParams(*v)
	p.Tracer = rec
	nw := network.New(t, fs, alg, nil, col, p, rng.New(*seed))
	msg := message.New(0, src, dst, *m, t.N(), mode, 0)
	col.Generated(msg)
	nw.Enqueue(src, msg)
	for msg.DeliveredAt < 0 && nw.Now() < 1_000_000 {
		nw.Step()
	}
	if msg.DeliveredAt < 0 {
		fatal(fmt.Errorf("message not delivered within 1M cycles"))
	}
	fmt.Print(rec.Render(t, 0))
	fmt.Printf("\nlatency: %d cycles (minimal distance %d, length %d flits, %d absorption(s))\n",
		msg.DeliveredAt-msg.CreatedAt, t.Distance(src, dst), *m, msg.Absorptions)
}

func parseCoords(t topology.Network, s string) (topology.NodeID, error) {
	if s == "" {
		return 0, fmt.Errorf("empty coordinates")
	}
	parts := strings.Split(s, ",")
	if len(parts) != t.N() {
		return 0, fmt.Errorf("got %d coordinates, topology has %d dimensions", len(parts), t.N())
	}
	coords := make([]int, len(parts))
	for i, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return 0, fmt.Errorf("bad coordinate %q", p)
		}
		coords[i] = v
	}
	return t.FromCoords(coords), nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "swtrace: %v\n", err)
	os.Exit(1)
}
