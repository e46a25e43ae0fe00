package network

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// goldenCase is one cell of the golden trace matrix: a fully specified run
// whose FNV-1a trace hash is pinned. The hashes were recorded from the
// engine as it stood before the lane-arena / blocked-head rewrite (PR 12's
// parent), so the matrix — not an ablation knob — is the oracle that the
// rewrite, and every later engine change, preserves the event sequence.
type goldenCase struct {
	name   string
	net    func(*testing.T) topology.Network
	alg    string
	v      int
	nf     int
	lambda float64
	td     int64
	sched  string // fault-schedule spec ($TRACE: a file holding goldenTrace); "" for a static run
	golden uint64
}

// goldenMatrix covers topology × algorithm × faults, one past-saturation
// point (heads blocked on full VC banks for most of the run), a nonzero
// decision time, a generative fault schedule, and one configuration with
// more than 64 lanes per router (5 ports × V=16), where the lane sets span
// two words.
var goldenMatrix = []goldenCase{
	{"torus-det-faultfree", torus8, "det", 4, 0, 0.004, 0, "", 0xfe77fc76fd66ac4a},
	{"torus-det-faulted", torus8, "det", 4, 6, 0.004, 0, "", 0x40d4420feb6cb2d6},
	{"torus-adaptive-faultfree", torus8, "adaptive", 4, 0, 0.004, 0, "", 0xeb12d0042389a0fc},
	{"torus-adaptive-faulted", torus8, "adaptive", 4, 6, 0.004, 0, "", 0x1b740ce4f0915e2a},
	{"torus-valiant-faultfree", torus8, "valiant", 4, 0, 0.004, 0, "", 0xf38b2293504343bd},
	{"torus-valiant-faulted", torus8, "valiant", 4, 6, 0.004, 0, "", 0x5d3ed1f3164a0a95},
	{"torus-adaptive-saturated", torus8, "adaptive", 4, 6, 0.03, 0, "", 0xbf61f48071f817e2},
	{"torus-adaptive-td2", torus8, "adaptive", 4, 6, 0.004, 2, "", 0xe464afea45da808c},
	{"torus-adaptive-mtbf", torus8, "adaptive", 4, 3, 0.02, 0, "mtbf:mtbf=1500,mttr=600,elems=mixed", 0x8db03665454a4e44},
	{"torus4-adaptive-v16", torus4, "adaptive", 16, 2, 0.08, 0, "", 0x5e589f881a0146df},
	// Recorded from PR 18's parent, before the one-visit engine: a sparse
	// shape where a busy router forwards one worm, and the three Params
	// settings of goldenKnobs.
	{"torus24-det-sparse", torus24, "det", 4, 0, 0.0002, 0, "", 0xbcfb27f693891ca8},
	{"torus-det-delta5", torus8, "det", 4, 6, 0.004, 0, "", 0x24e403bbf100f558},
	{"torus-adaptive-lat3-cred2", torus8, "adaptive", 4, 6, 0.004, 0, "", 0x7409126e901b5c2f},
	{"torus-det-noreinjectprio", torus8, "det", 4, 6, 0.01, 0, "", 0x1d920c251669f2fe},
	// Recorded from PR 20's parent, the last engine that could be checked
	// against a dense-scanning copy of itself: the two environments of that
	// check (mesh edges with absorption; a non-uniform latmap, so arrivals
	// are inserted at their due position), the remaining topology kind and
	// registered algorithms, and a trace: schedule.
	{"mesh-det-faulted", mesh8, "det", 4, 4, 0.004, 0, "", 0x1992c81039ccbfac},
	{"latmap-torus-det", latmapTorus, "det", 4, 0, 0.02, 0, "", 0x4a80c86ffe4e36ac},
	{"hypercube-det-faulted", hypercube6, "det", 4, 4, 0.004, 0, "", 0x264e8dd8e634fbf2},
	{"torus-valiant-adaptive-faulted", torus8, "valiant-adaptive", 4, 6, 0.004, 0, "", 0x99681a9c2521a430},
	{"torus-adaptive-trace", torus8, "adaptive", 4, 3, 0.008, 0, "trace:file=$TRACE", 0xf40e25376ccb11a3},
	// Recorded from PR 24's parent, the last engine whose arbiter gathered
	// its requesters into buckets: the shapes where most routed lanes wait
	// for a credit and most software layers for an injection buffer — a
	// saturated deterministic torus, six contended output ports, two-word
	// lane sets under contention, and purges landing on parked lanes.
	{"torus-det-saturated", torus8, "det", 4, 6, 0.03, 0, "", 0x23644d5197f35164},
	{"torus3d-adaptive-saturated", torus4x3, "adaptive", 6, 4, 0.07, 0, "", 0x1ec7617b1f6e5fd2},
	{"torus4-adaptive-v16-saturated", torus4, "adaptive", 16, 2, 0.15, 0, "", 0x3952943a4e5015e3},
	{"torus-adaptive-mtbf-saturated", torus8, "adaptive", 4, 3, 0.03, 0, "mtbf:mtbf=1500,mttr=600,elems=mixed", 0xfc3a55b1e2e827a6},
	// Recorded from the parent of the change that moved the decision time
	// out of the lane: purges under a nonzero decision time that find
	// staged arrivals due in later cycles (link latency 3), so they filter
	// in-flight transfers and restore their credits.
	{"torus-adaptive-td2-lat3-mtbf", torus8, "adaptive", 4, 3, 0.008, 2, "mtbf:mtbf=1500,mttr=600,elems=mixed", 0x3ef9497047b6f4fb},
	// Recorded from the parent of the change that moved a lane's first two
	// flit slots into its record: four-flit buffers under saturation and
	// fault churn, so lanes fill past the inline slots and purges filter
	// worms out of the overflow ones. Every other cell runs at depth <= 3.
	{"torus-adaptive-buf4-mtbf-saturated", torus8, "adaptive", 4, 3, 0.03, 0, "mtbf:mtbf=1500,mttr=600,elems=mixed", 0xe150455d183ca106},
	// Recorded from the parent of the change that derives every output VC
	// from the credit law after a purge: fault churn on a mesh, where the
	// unwired edge ports are faulty channels that carry nothing.
	{"mesh-det-mtbf", mesh8, "det", 4, 3, 0.02, 0, "mtbf:mtbf=1500,mttr=600,elems=mixed", 0x46cb7b1f73f673e2},
}

// goldenKnobs holds, by cell name, the Params settings the goldenCase
// columns do not cover: a re-injection queue holding not-yet-eligible
// entries, staged events not due in their own cycle, and fresh traffic
// served ahead of re-injections.
var goldenKnobs = map[string]func(*Params){
	"torus-det-delta5":                   func(p *Params) { p.Delta = 5 },
	"torus-adaptive-lat3-cred2":          func(p *Params) { p.LinkLatency, p.CreditDelay = 3, 2 },
	"torus-adaptive-td2-lat3-mtbf":       func(p *Params) { p.LinkLatency, p.CreditDelay = 3, 2 },
	"torus-det-noreinjectprio":           func(p *Params) { p.NoReinjectPriority = true },
	"torus-adaptive-buf4-mtbf-saturated": func(p *Params) { p.BufDepth = 4 },
}

func torus8(*testing.T) topology.Network   { return topology.New(8, 2) }
func torus4(*testing.T) topology.Network   { return topology.New(4, 2) }
func torus24(*testing.T) topology.Network  { return topology.New(24, 2) }
func torus4x3(*testing.T) topology.Network { return topology.New(4, 3) }
func mesh8(*testing.T) topology.Network    { return topology.NewMesh(8, 2) }

func hypercube6(t *testing.T) topology.Network {
	net, err := topology.NewNetwork("hypercube:n=6")
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// goldenTrace is the schedule file of the trace: cell — a link, then a
// node, failing and healing inside the generation window.
const goldenTrace = "1000,fail,link,9,0\n1600,heal,link,9,0\n2200,fail,node,27\n2800,heal,node,27\n"

// runGolden drives one matrix cell: 3000 cycles of Poisson traffic, then a
// drain, on the given number of engine workers, calling check (when
// non-nil) after every Step.
func runGolden(t *testing.T, c goldenCase, workers int, check func(*Network)) []trace.Event {
	t.Helper()
	net := c.net(t)
	fs := fault.NewSet(net)
	if c.nf > 0 {
		var err error
		fs, err = fault.Random(net, c.nf, rng.New(41))
		if err != nil {
			t.Fatal(err)
		}
	}
	alg, err := routing.New(c.alg, net, fs, c.v)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(123)
	pattern, err := traffic.NewPattern("uniform", net, fs)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	p := DefaultParams(c.v)
	p.Tracer = rec
	p.Td = c.td
	p.Workers = workers
	if knob := goldenKnobs[c.name]; knob != nil {
		knob(&p)
	}
	if workers > 1 {
		p.AlgFactory = func() (routing.Router, error) { return routing.New(c.alg, net, fs, c.v) }
	}
	pool := message.NewPool(net.N(), false)
	p.Pool = pool
	gen, err := traffic.NewSource("poisson", traffic.Env{
		T: net, F: fs, Sources: fs.HealthyNodes(),
		Lambda: c.lambda, MsgLen: 16, Mode: alg.BaseMode(),
		Pattern: pattern, R: r.Split(1), Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := r.Split(2) // before the schedule stream, as core.NewEngine does
	if c.sched != "" {
		spec := c.sched
		if strings.Contains(spec, "$TRACE") {
			file := filepath.Join(t.TempDir(), "events.csv")
			if err := os.WriteFile(file, []byte(goldenTrace), 0o644); err != nil {
				t.Fatal(err)
			}
			spec = strings.Replace(spec, "$TRACE", file, 1)
		}
		p.Schedule, err = fault.NewSchedule(spec, fault.ScheduleEnv{
			T: net, R: r.Split(rng.ScheduleLabel()),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	nw := New(net, fs, alg, gen, metrics.NewCollector(0), p, engine)
	step := func() {
		nw.Step()
		if check != nil {
			check(nw)
		}
	}
	for nw.Now() < 3000 {
		step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 400_000 {
		step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	return rec.All()
}

// TestGoldenTraceMatrix holds every matrix cell to its pinned hash on the
// serial engine, on three worker domains (an odd count, so domain bounds
// fall mid-row) and on eight.
func TestGoldenTraceMatrix(t *testing.T) {
	for _, c := range goldenMatrix {
		t.Run(c.name, func(t *testing.T) {
			for _, workers := range []int{1, 3, 8} {
				ev := runGolden(t, c, workers, nil)
				if len(ev) == 0 {
					t.Fatal("no events traced")
				}
				if h := traceHash(ev); h != c.golden {
					t.Errorf("workers=%d: trace hash = %#x, want %#x (%d events; the event sequence changed)",
						workers, h, c.golden, len(ev))
				}
			}
		})
	}
}
