// Command swtrace follows a single message through a faulted network and
// prints its complete event history: injection, every hop, absorptions,
// via stops, re-injections and delivery. It is the debugging lens onto the
// Software-Based algorithm's behaviour around a specific fault pattern.
//
// The network, the faults and the router are the ones swsim builds from
// the same command line: -topo/-k/-n, -faults, -shape, -seed, -alg, -v and
// -m are core.BindFlags' in both tools. -shape and -faults combine, and a
// random placement is not steered around -src/-dst — the lens must show
// the run, not a friendlier one. An endpoint that lands on a failed node is
// refused ("source or destination is faulty"); pick another endpoint or
// -seed. Without -dst there is no message to follow: swtrace draws the
// fault plane (on a 2-D network) and the coalesced regions, and exits.
//
//	swtrace -k 8 -n 2 -faults 5 -seed 4 -src 0,0 -dst 5,5
//	swtrace -k 8 -n 2 -shape U -src 0,3 -dst 4,3 -alg adaptive
//	swtrace -topo mesh:k=8,n=2 -alg adaptive -faults 4 -src 0,0 -dst 7,7
//	swtrace -topo mesh:k=4,n=3 -alg adaptive -src 0,0,0 -dst 3,3,3
//	swtrace -k 16 -n 2 -shape U:a=4,b=5
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("swtrace", flag.ContinueOnError)
	fl.SetOutput(stderr)
	def := core.DefaultConfig(8, 2, 0)
	def.Algorithm, def.MsgLen = "det", 16
	var (
		config  = core.BindFlags(fl, def) // -topo -k -n -alg -v -m -faults -shape -seed
		srcFlag = fl.String("src", "0,0", "source coordinates, comma-separated")
		dstFlag = fl.String("dst", "", "destination coordinates (empty: draw the faults and exit)")
		list    = fl.Bool("list", false, "list registered topologies, algorithms, patterns and sources, then exit")
	)
	if err := fl.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "swtrace: %v\n", err)
		return 1
	}

	if *list {
		core.PrintRegistries(stdout, "swsim ")
		return 0
	}

	cfg, t, err := config()
	if err != nil {
		fmt.Fprintf(stderr, "swtrace: %v\n", err)
		return 2
	}
	fs, err := core.BuildFaults(t, cfg.Faults, cfg.Seed)
	if err != nil {
		return fail(err)
	}
	if *dstFlag == "" { // no message to follow: draw the faults
		drawFaults(stdout, t, fs)
		return 0
	}
	src, err := parseCoords(t, *srcFlag)
	if err != nil {
		return fail(err)
	}
	dst, err := parseCoords(t, *dstFlag)
	if err != nil {
		return fail(fmt.Errorf("need -dst: %w", err))
	}
	if fs.NodeFaulty(src) || fs.NodeFaulty(dst) {
		return fail(fmt.Errorf("source or destination is faulty"))
	}
	alg, err := routing.New(cfg.AlgorithmName(), t, fs, cfg.V)
	if err != nil {
		return fail(err)
	}
	mode := alg.BaseMode()

	drawFaults(stdout, t, fs)
	fmt.Fprintf(stdout, "tracing %s -> %s (%s, M=%d, V=%d)\n\n",
		t.FormatNode(src), t.FormatNode(dst), mode, cfg.MsgLen, cfg.V)

	rec := trace.NewRecorder()
	col := metrics.NewCollector(0)
	p := network.DefaultParams(cfg.V)
	p.Tracer = rec
	nw := network.New(t, fs, alg, nil, col, p, rng.New(cfg.Seed))
	msg := message.New(0, src, dst, cfg.MsgLen, t.N(), mode, 0)
	col.Generated(msg)
	nw.Enqueue(src, msg)
	for msg.DeliveredAt < 0 && nw.Now() < 1_000_000 {
		nw.Step()
	}
	if msg.DeliveredAt < 0 {
		return fail(fmt.Errorf("message not delivered within 1M cycles"))
	}
	fmt.Fprint(stdout, rec.Render(t, 0))
	fmt.Fprintf(stdout, "\nlatency: %d cycles (minimal distance %d, length %d flits, %d absorption(s))\n",
		msg.DeliveredAt-msg.CreatedAt, t.Distance(src, dst), cfg.MsgLen, msg.Absorptions)
	return 0
}

// drawFaults prints a 2-D network's fault plane and any network's regions.
func drawFaults(w io.Writer, t topology.Network, fs *fault.Set) {
	if t.N() == 2 {
		fmt.Fprint(w, viz.RenderPlane(fs))
	}
	fmt.Fprint(w, viz.RenderRegions(fs))
}

// parseCoords reads a comma-separated node address. FromCoords reduces
// digits mod k, so a digit outside [0, k) is rejected here rather than
// silently traced to a different node.
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
		if v < 0 || v >= t.K() {
			return 0, fmt.Errorf("coordinate %d in %q is outside [0, %d)", v, s, t.K())
		}
		coords[i] = v
	}
	return t.FromCoords(coords), nil
}
