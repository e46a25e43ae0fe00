// Package network is the flit-level, cycle-accurate simulation engine: it
// wires one router per node of any topology.Network, drives the configured
// traffic source (any registered traffic.Source — Poisson, bursty, trace
// replay, ...) through them under wormhole switching with virtual channels
// and credit flow control, and implements the Software-Based
// absorption/re-injection machinery (assumption (i) of the paper):
//
//   - a message whose outgoing channel leads to a fault is ejected through
//     the local ejection channel into the node's software queue,
//   - the messaging layer rewrites the header (internal/routing's planner),
//   - after Δ cycles the message re-injects with priority over new traffic.
//
// The engine is fully deterministic for a given seed at any worker count:
// Params.Workers > 1 partitions the routers into contiguous node-range
// domains stepped by a worker pool under a compute/commit barrier (see
// parallel.go), with results bit-identical to the serial engine. Sweeps
// additionally parallelise across engine instances (see internal/core).
//
// Messages live in a message.Pool: every queue, stream and buffered flit
// carries a compact message.Ref instead of a pointer, and delivery/drop
// returns the message to the pool — so a steady-state Step allocates
// nothing (core.TestStepAllocatesNothing).
package network

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// Params configures one engine instance.
type Params struct {
	// V is the number of virtual channels per physical channel.
	V int
	// BufDepth is the per-VC buffer depth in flits.
	BufDepth int
	// Td is the router decision time in cycles (assumption (f); the paper's
	// experiments use 0).
	Td int64
	// Delta is the software re-injection overhead in cycles (assumption
	// (i); the paper's experiments use 0).
	Delta int64
	// Tracer, when non-nil, receives per-message events (injections, hops,
	// stops, deliveries). Used by debugging tools and invariant tests.
	Tracer trace.Tracer
	// NoReinjectPriority disables the paper's "absorbed messages have
	// priority over new messages" rule (ablation: §4 argues the priority
	// prevents starvation).
	NoReinjectPriority bool
	// LinkLatency is the default flit transmission time across a physical
	// channel in cycles. The paper's assumption (g) — one flit per cycle —
	// is the default 1; larger values model longer wires (ablation knob).
	// Topologies carrying a latmap overlay override it per link
	// (topology.Network.LinkLatency); credits keep the global CreditDelay.
	LinkLatency int64
	// CreditDelay is the time for a credit to travel back upstream.
	// Default 1 (visible the next cycle); larger values model pipelined
	// credit return paths.
	CreditDelay int64
	// Retired ablation knobs: each selected a predecessor of the engine's one
	// scheduler, link lookup, message arena or rng mode, and selects nothing
	// now — New panics when one is set. The names remain only because the
	// frozen bench/ module copies them (bench/engine.go:188-189); they go
	// with the bench/ unfreeze.
	DenseScan, DenseVCScan, NoLinkCache, NoArena, GlobalRNG bool
	// Workers is the number of stepping domains: the routers are split
	// into this many contiguous node-id ranges, each stepped by its own
	// worker under a compute/commit barrier (see parallel.go). <= 1 runs
	// the serial engine. Results are bit-identical for any value; only
	// wall-clock cost differs. Values above the node count are clamped.
	Workers int
	// AlgFactory builds one extra routing-algorithm instance per parallel
	// worker beyond the first (a routing.Router's Decision scratch must not
	// be shared across goroutines). Required when Workers > 1; instances
	// must be configured identically to the engine's alg (same topology,
	// fault set, V, escalation). internal/core wires it from the routing
	// registry.
	AlgFactory func() (routing.Router, error)
	// Pool, when non-nil, is the message pool the engine registers, resolves
	// and frees messages in. It must be the same pool the traffic source
	// allocates from (see traffic.Env.Pool); internal/core wires the two.
	// When nil, the engine builds its own pool and Adopt-registers every
	// polled or enqueued message — correct, but source-side allocations
	// then stay on the heap.
	Pool *message.Pool
	// Schedule, when non-nil, makes the run dynamic: the engine advances
	// the schedule once per cycle at the serial transition point, and its
	// Advance applies the fail/heal transitions to the engine's fault set
	// in place (see transitions.go).
	Schedule fault.Schedule
}

// DefaultParams returns the paper's configuration: Td = 0, Δ = 0,
// 2-flit VC buffers.
func DefaultParams(v int) Params {
	return Params{V: v, BufDepth: 2}
}

// arrivalEvent is a staged flit transfer into input lane `lane` of node,
// applied when dueAt <= now (at cycle end). Events are enqueued in
// non-decreasing dueAt order because the link latency is constant, so a
// FIFO suffices. Node ids fit 32 bits (New refuses larger networks).
type arrivalEvent struct {
	dueAt int64
	node  int32
	lane  router.Lane
	flit  message.Flit
}

// creditEvent is a staged credit return to output VC `out` (a
// router.OutIndex) of node, applied when dueAt <= now.
type creditEvent struct {
	dueAt int64
	node  int32
	out   int32
}

// link is one precomputed entry of the engine's per-(node, port) geometry
// table: the downstream router and whether the hop crosses the dateline.
// The far side of the channel is addressed from the port alone: the
// neighbour's first input lane fed by it, which is also the neighbour's
// first output VC feeding our input port, is back(port) = Opposite(port)·V,
// so flit transfers and credit returns both go to back + vc. The flit
// latency is Params.LinkLatency unless a latency overlay makes it vary
// (Network.lat). The downstream id takes the low 31 bits and the dateline
// bit the top one: node ids are below 2³¹ (New refuses larger networks).
// Routing only ever allocates existing healthy channels, so an unwired
// mesh-edge port (noLink) is never followed. 4 bytes.
type link uint32

const (
	// linkWraps is a link's dateline bit.
	linkWraps link = 1 << 31
	// noLink is the entry of an unwired port: its id, MaxInt32, names no
	// node.
	noLink link = math.MaxInt32
)

// dst returns the downstream router.
func (l link) dst() int32 { return int32(l &^ linkWraps) }

// wraps reports whether the hop crosses the dateline.
func (l link) wraps() bool { return l&linkWraps != 0 }

// softState is a node's software-layer state (see Network.soft).
type softState uint8

const (
	softIdle softState = iota
	softRun
	softStalled
)

// stream is a message currently trickling through a node's injection
// channel into an injection-port virtual channel: seq is the next flit (a
// worm is at most message.MaxLen flits long), vc the injection VC (below
// router.MaxV). The worm's length is read off the message as each flit is
// made. 8 bytes.
type stream struct {
	ref message.Ref
	seq uint16
	vc  uint8
}

// Network is the simulation engine.
type Network struct {
	t    topology.Network
	f    *fault.Set
	p    Params
	pool *message.Pool

	// links is the geometry table (see link), indexed node*degree + port.
	// lat is its latency column, kept only when a latency overlay makes
	// some link differ from Params.LinkLatency; while it is nil, staged
	// arrivals are naturally FIFO-ordered by due cycle.
	links  []link
	lat    []int32
	degree int

	// routers is the lane arena (router.NewSlab): one Router value per
	// node, all state in shared slabs.
	routers []router.Router
	gen     traffic.Source
	col     *metrics.Collector
	r       *rng.Stream

	// rngs holds each router's VC-selection stream, derived from the
	// engine stream via SplitValue(rng.RouterLabel(id)) at construction.
	// Per-router ownership is what lets domains draw concurrently without
	// perturbing each other.
	rngs []rng.Stream

	// readyAt[node·lanes + lane] is the earliest cycle the head at the
	// front of a lane may take its routing decision: the decision time Td
	// of assumption (f), restarted wherever a head becomes a front (see
	// holdHead). Nil when Td = 0, where the wait is always over by the
	// first look: a head surfacing in phase B or the switch step is first
	// routed next cycle, one a purge surfaces this cycle.
	readyAt []int64

	// doms holds the stepping domains in node order — one for the serial
	// engine — and dom maps node id → owning domain index (see parallel.go).
	doms []*worker
	dom  []int32

	// Per-node software queues, threaded through the message pool: fresh
	// traffic and re-injections (the latter have absolute priority, §4
	// "Absorbed messages have priority over new messages to prevent
	// starvation"; a re-injection becomes eligible Δ after its absorption).
	newQ []message.Queue
	reQ  []message.Queue
	// Per-node active injection streams, at most one flit/cycle/node: those
	// of node id are streams[id·V : id·V+nstreams[id]], in start order (a
	// node never runs more than V, one per injection VC). rrInj is the
	// node's round-robin pointer over them.
	streams  []stream
	nstreams []uint8
	rrInj    []uint8
	// soft[id] is the software-layer state of node id. softRun is the
	// occupancy flag: raised wherever something is pushed on newQ/reQ,
	// lowered to softIdle only by injectNode once it has seen both queues
	// (not-yet-eligible entries included) and streams empty. A superset of
	// "queue or stream non-empty" by construction — a purge may empty a
	// queue and leave the flag set for one more visit — which is
	// unobservable: active-set membership never reaches a result.
	// softStalled parks the inject step of an occupied layer that can
	// neither start a stream nor inject a flit (see injectNode).
	soft []softState

	// Dynamic-fault state (nil/zero for static runs): the schedule driving
	// transitions (applied to f in place) and the algorithm's base
	// routing mode, restored to purged worms when they restart from their
	// source (accumulated rerouting state is meaningless once the fault
	// pattern that caused it has changed).
	sched    fault.Schedule
	baseMode message.Mode

	now      int64
	inFlight int // worms injected (streaming or in-network) not yet completed

	genStopped bool

	// stepClock, when non-nil, is told every time Step passes one of its
	// marks. Nil outside TestPhaseTable, which reads a clock there — time the
	// engine itself never sees, so none of it can reach a result.
	stepClock func(stepMark)
}

// stepMark names the points of Step the stepClock hook is told about: the
// start, the end of each stage, and (on several workers) the moment the
// stepping goroutine has finished its own domain's share of a phase and
// starts waiting for the others.
type stepMark uint8

const (
	markStart stepMark = iota
	markTransition
	markPoll
	markPhaseA
	markCommit
	markPhaseB
	markOwnShare
	numMarks
)

// stamp reports a mark to the stepClock hook, if one is installed.
func (nw *Network) stamp(m stepMark) {
	if nw.stepClock != nil {
		nw.stepClock(m)
	}
}

// New builds an engine. alg must be bound to the same topology and fault
// set. gen is the traffic source polled once per cycle (any registered
// traffic.Source — Poisson, bursty, replay, ...); nil runs a source-less
// engine driven through Enqueue.
func New(t topology.Network, f *fault.Set, alg routing.Router, gen traffic.Source, col *metrics.Collector, p Params, r *rng.Stream) *Network {
	if p.V != alg.V() {
		panic(fmt.Sprintf("network: params V=%d but algorithm V=%d", p.V, alg.V()))
	}
	if p.BufDepth < 1 {
		panic("network: BufDepth must be >= 1")
	}
	if p.LinkLatency < 1 {
		p.LinkLatency = 1
	}
	if p.CreditDelay < 1 {
		p.CreditDelay = 1
	}
	if p.DenseScan || p.DenseVCScan || p.NoLinkCache || p.NoArena || p.GlobalRNG {
		panic("network: DenseScan, DenseVCScan, NoLinkCache, NoArena and GlobalRNG are retired and select nothing; leave them unset")
	}
	if t.Nodes() > math.MaxInt32 || p.LinkLatency > topology.MaxLinkLatency {
		panic(fmt.Sprintf("network: %d nodes or link latency %d does not fit the engine's 32-bit records", t.Nodes(), p.LinkLatency))
	}
	pool := p.Pool
	if pool == nil {
		pool = message.NewPool(t.N(), false)
	}
	n := &Network{
		t: t, f: f, p: p, pool: pool,
		routers: router.NewSlab(t.Nodes(), t.N(), p.V, p.BufDepth),
		degree:  t.Degree(),
		gen:     gen, col: col, r: r,
		newQ:     make([]message.Queue, t.Nodes()),
		reQ:      make([]message.Queue, t.Nodes()),
		streams:  make([]stream, t.Nodes()*p.V),
		nstreams: make([]uint8, t.Nodes()),
		rrInj:    make([]uint8, t.Nodes()),
		soft:     make([]softState, t.Nodes()),
	}
	n.buildLinkTable()
	n.rngs = make([]rng.Stream, t.Nodes())
	for id := range n.rngs {
		n.rngs[id] = r.SplitValue(rng.RouterLabel(id))
	}
	if p.Td > 0 {
		n.readyAt = make([]int64, t.Nodes()*(n.degree+1)*p.V)
	}
	if p.Schedule != nil {
		n.sched = p.Schedule
		n.baseMode = alg.BaseMode()
	}
	n.initWorkers(alg)
	return n
}

// buildLinkTable precomputes downstream node, dateline crossing and
// effective latency for every (node, port) so the per-flit hot path never
// dispatches through the topology interface.
func (nw *Network) buildLinkTable() {
	uniform := true
	nw.links = make([]link, nw.t.Nodes()*nw.degree)
	for i := range nw.links {
		id, port := topology.NodeID(i/nw.degree), topology.Port(i%nw.degree)
		dim, dir := port.Dim(), port.Dir()
		if !nw.t.HasLink(id, dim, dir) {
			nw.links[i] = noLink
			continue
		}
		nw.links[i] = link(nw.t.Neighbor(id, dim, dir))
		if nw.t.WrapsAround(nw.t.Coord(id, dim), dir) {
			nw.links[i] |= linkWraps
		}
		if lat := nw.t.LinkLatency(id, port); lat != 0 && lat != nw.p.LinkLatency {
			uniform = false
		}
	}
	if uniform {
		return
	}
	nw.lat = make([]int32, len(nw.links))
	for i := range nw.lat {
		nw.lat[i] = int32(nw.p.LinkLatency)
		if lat := nw.t.LinkLatency(topology.NodeID(i/nw.degree), topology.Port(i%nw.degree)); lat != 0 {
			nw.lat[i] = int32(lat)
		}
	}
}

// linkFor returns the link-table entry of the channel leaving node through
// port.
func (nw *Network) linkFor(node topology.NodeID, port topology.Port) link {
	return nw.links[int(node)*nw.degree+int(port)]
}

// back returns the first lane (and output VC) of the far end of the channel
// leaving through port: the neighbour's input port facing it, times V.
func (nw *Network) back(port topology.Port) int {
	return int(port.Opposite()) * nw.p.V
}

// streamsOf returns node's active injection streams.
func (nw *Network) streamsOf(node topology.NodeID) []stream {
	b := int(node) * nw.p.V
	return nw.streams[b : b+int(nw.nstreams[node])]
}

// markSoft records that something was pushed on one of the node's software
// queues: it raises the occupancy flag (waking a stalled layer) and puts
// the router into its domain's active set, so the next phase A visits it.
// Idempotent. Serial contexts only (Enqueue, pollTraffic, transitions); a
// worker applying arrivals marks its own set directly
// (worker.applyArrival).
func (nw *Network) markSoft(id topology.NodeID) {
	nw.soft[id] = softRun
	nw.domain(id).mark(id)
}

// domain returns the worker whose domain holds router id.
func (nw *Network) domain(id topology.NodeID) *worker {
	return nw.doms[nw.dom[id]]
}

// Now returns the current cycle.
func (nw *Network) Now() int64 { return nw.now }

// InFlight returns the number of injected-but-uncompleted worms.
func (nw *Network) InFlight() int { return nw.inFlight }

// Pool returns the engine's message pool.
func (nw *Network) Pool() *message.Pool { return nw.pool }

// Workers returns the effective stepping-domain count: 1 for the serial
// engine, the (node-clamped) Params.Workers otherwise.
func (nw *Network) Workers() int { return len(nw.doms) }

// Backlog returns the number of messages waiting in source software queues
// (new + re-injection) plus active injection streams.
func (nw *Network) Backlog() int {
	total := 0
	for id := range nw.newQ {
		total += nw.pool.QueueLen(nw.newQ[id]) + nw.pool.QueueLen(nw.reQ[id]) + int(nw.nstreams[id])
	}
	return total
}

// StopGeneration halts the traffic source (used by drain tests and
// fixed-message-count runs).
func (nw *Network) StopGeneration() { nw.genStopped = true }

// Enqueue places a caller-constructed message on a node's fresh-traffic
// queue, bypassing the Poisson generator. Used by tracing tools and tests
// that drive individual messages. The message is registered in the engine's
// pool; its storage stays the caller's (inspectable after delivery).
func (nw *Network) Enqueue(node topology.NodeID, m *message.Message) {
	if nw.f.NodeFaulty(node) {
		panic(fmt.Sprintf("network: enqueue at faulty node %d", node))
	}
	nw.pool.Enqueue(&nw.newQ[node], nw.pool.Adopt(m), 0)
	nw.markSoft(node)
}

// Idle reports whether the network is completely drained: no buffered
// flits, no flits in flight on links, no queued messages, no active
// streams.
func (nw *Network) Idle() bool {
	if nw.Backlog() > 0 {
		return false
	}
	for _, w := range nw.doms {
		if len(w.arrQ) > 0 {
			return false
		}
	}
	for id := range nw.routers {
		if nw.routers[id].Buffered() {
			return false
		}
	}
	return true
}

// Step advances the simulation by one cycle: the serial transition point
// (fault schedule, traffic polling — no worker goroutine exists between
// cycles), then phase A (one visit per active router: route/allocate →
// switch → inject → retire, every shared-state effect staged), the ordered
// effect commit, and phase B (apply staged transfers) on every domain. The
// serial engine is the one-domain case of the same loop (see parallel.go).
func (nw *Network) Step() {
	nw.now++
	nw.stamp(markStart)
	nw.applyTransitions()
	nw.stamp(markTransition)
	nw.pollTraffic()
	nw.stamp(markPoll)
	nw.runParallel((*worker).phaseA)
	nw.stamp(markPhaseA)
	nw.commitEffects()
	nw.stamp(markCommit)
	nw.runParallel((*worker).phaseB)
	nw.stamp(markPhaseB)
}

// pollTraffic pulls newly generated messages into source queues. Messages
// from a pool-aware source are already registered (Adopt is then a no-op
// returning the existing Ref); heap-allocating sources get registered here.
func (nw *Network) pollTraffic() {
	if nw.genStopped || nw.gen == nil {
		return
	}
	for _, m := range nw.gen.Poll(nw.now) {
		nw.col.Generated(m)
		if nw.sched != nil && (nw.f.NodeFaulty(m.Src) || nw.f.NodeFaulty(m.Dst)) {
			// An endpoint failed mid-run (sources draw their layout from the
			// static set and cannot know): the offered message is lost,
			// counted against availability. Routing assumes healthy
			// destinations, so a dead-destination message would circle until
			// the heal; dropping it at the boundary keeps behaviour bounded.
			// Unreachable with an empty schedule — sources never pick
			// statically faulty endpoints — so static equivalence holds.
			nw.col.Lost(m)
			nw.pool.Free(nw.pool.Adopt(m))
			continue
		}
		nw.pool.Enqueue(&nw.newQ[m.Src], nw.pool.Adopt(m), 0)
		nw.markSoft(m.Src)
	}
}

// visit runs one active router's cycle while its state is loaded — route/
// allocate, switch traversal, software-layer injection — and reports
// whether the router still has locally visible work (buffered flits, or an
// occupied software layer); everything else re-enters the active set
// when an event touches it. Each step costs what the router has to do: the
// route step runs only with a head to route, a lone switch requester skips
// arbitration (switchOne), several arbitrate only while one of them is not
// waiting for a credit, the inject step runs only under a software layer
// that is occupied and not stalled. A router's steps touch its own lanes, queues and
// streams, the headers of worms whose head it holds, and staged queues —
// the single-owner rule — so running them router-major gives the results
// of the phase-major order the effect logs are replayed in.
//
//simlint:phase compute
func (w *worker) visit(node topology.NodeID) bool {
	nw := w.nw
	rt := &nw.routers[node]
	if rt.Buffered() {
		if rt.Words() > 1 {
			w.routeNode(node, rt)
			w.switchPorts(node, rt)
		} else {
			if rt.RouteWord(0) != 0 {
				w.routeNode(node, rt)
			}
			if m := rt.SwitchWord(0); m&(m-1) != 0 {
				if rt.ReadyWord(0) != 0 {
					w.switchPorts(node, rt)
				}
			} else if m != 0 {
				w.switchOne(node, rt, router.Lane(bits.TrailingZeros64(m)))
			}
		}
	}
	if nw.soft[node] == softRun {
		w.injectNode(node)
	}
	return rt.Buffered() || nw.soft[node] != softIdle
}

// routeNode takes the routing decisions of one router: every lane whose
// front is an unrouted, unblocked head (router.RouteWord), walking the set
// bits in ascending lane = port-major/VC-minor order — the order rng draws
// are taken in.
//
//simlint:phase compute
func (w *worker) routeNode(node topology.NodeID, rt *router.Router) {
	for i := 0; i < rt.Words(); i++ {
		for m := rt.RouteWord(i); m != 0; m &= m - 1 {
			w.allocateLane(node, rt, router.Lane(i<<6+bits.TrailingZeros64(m)))
		}
	}
}

// allocateLane takes the routing decision for an input lane of node whose
// front worm is unrouted, if that front is a head and ready. The candidate
// scratch w.freeVCs is reused across calls; the VC pick draws from the
// router's own stream (see Network.rngs).
//
// A head that finds every candidate output VC busy is parked
// (router.Block), registered under the port and VC bits of the candidates
// Route just returned (router.WaitBit), and not asked again until the
// answer can differ. Parking loses no decision: Route is a pure function of
// (node, header, fault set) — a repeated call returns the same candidates,
// including Valiant's via, which the first call already pushed — a blocked
// outcome draws no random number, and Busy only turns true in this phase.
// So the outcome can change only when one of those candidates is released
// (the tail leaves in moveNetwork) or the fault set changes
// (applyTransitions: a failure's purge removes worms, and settleOutputs
// frees the VCs no surviving route holds), and each of those wakes the
// lane. A woken head whose registration still stands and covers only busy
// output VCs — another head woken by the same release took it first, or the
// release was of a VC that only shares the registration's bits and has been
// taken again — is parked again without asking (router.Repark); one whose
// registration covers a free VC asks, and re-parks with nothing drawn and
// nothing traced if none of its candidates is free. The mark and the
// registration die with the lane's front flit (router.FilterLane), and a
// fault transition drops every registration (router.Unblock). The state is
// router-owned, so the parallel engine's single-owner rule holds.
//
//simlint:phase compute
func (w *worker) allocateLane(node topology.NodeID, rt *router.Router, lane router.Lane) {
	nw := w.nw
	ivc := &rt.In[lane]
	front, ok := rt.Front(lane)
	if !ok || !front.IsHead() || nw.readyAt != nil && nw.now < nw.readyAt[int(node)*len(rt.In)+int(lane)] || rt.Repark(lane) {
		return
	}
	m := nw.pool.At(front.Ref())
	dec := w.alg.Route(node, m)
	switch dec.Outcome {
	case routing.Deliver:
		m.Pending = message.StopDeliver
		ivc.OutPort = uint8(rt.EjectPort())
	case routing.ViaArrived:
		m.Pending = message.StopVia
		ivc.OutPort = uint8(rt.EjectPort())
	case routing.AbsorbFault:
		w.emitTrace(phRoute, trace.AbsorbStart, m.ID, node)
		if w.alg.Plan(node, m, dec.BlockedDim, dec.BlockedDir) {
			m.Pending = message.StopFault
		} else {
			m.Pending = message.StopDrop
		}
		ivc.OutPort = uint8(rt.EjectPort())
	case routing.Progress:
		free := w.freeVCs[:0]
		for _, c := range dec.Preferred {
			if !rt.Out[rt.OutIndex(c.Port, c.VC)].Busy {
				free = append(free, c)
			}
		}
		if len(free) == 0 {
			for _, c := range dec.Fallback {
				if !rt.Out[rt.OutIndex(c.Port, c.VC)].Busy {
					free = append(free, c)
				}
			}
		}
		w.freeVCs = free
		if len(free) == 0 {
			// All candidate VCs owned: wait for the release of one of them.
			rt.Block(lane, waitBits(dec.Preferred)|waitBits(dec.Fallback))
			return
		}
		pick := free[nw.rngs[node].Intn(len(free))]
		rt.Out[rt.OutIndex(pick.Port, pick.VC)].Busy = true
		ivc.OutPort, ivc.OutVC = uint8(pick.Port), uint8(pick.VC)
	}
	// Every case above that falls through has allocated a route (Progress
	// returns early otherwise).
	rt.SetRoute(lane)
}

// waitBits returns the registration (router.WaitBit) of a blocked head's
// candidates.
func waitBits(candidates []routing.CandidateVC) uint16 {
	waits := uint16(0)
	for _, c := range candidates {
		waits |= router.WaitBit(int(c.Port), c.VC)
	}
	return waits
}

// switchPorts performs one router's switch allocation and link/ejection
// traversal. The paper's router is a full (2n+1)V-way crossbar that "can
// simultaneously connect multiple input to multiple output virtual
// channels": any buffered flit may move as long as (a) at most one flit
// crosses each output physical channel per cycle (VCs time-multiplex the
// link bandwidth), and (b) ejection drains each absorbing/delivering VC at
// one flit per cycle (assumption (d): messages transfer to the PE as soon
// as they arrive).
//
// The requesters are read, not gathered: the router's per-port request
// words say which ports have a lane to serve (router.ReadyPorts). Eject
// lanes drain first, in ascending lane order (per-VC ejection, no
// arbitration), then each requested network output channel, in port order,
// carries the flit of the lane its arbiter grants (router.Grant). A move
// changes nothing another port's arbiter reads, so the port mask taken up
// front stays good.
//
//simlint:phase compute
func (w *worker) switchPorts(node topology.NodeID, rt *router.Router) {
	ports := rt.ReadyPorts()
	if eject := uint64(1) << uint(w.nw.degree); ports&eject != 0 {
		ports &^= eject
		for g := 0; g < rt.Words(); g++ {
			for m := rt.EjectWord(g); m != 0; m &= m - 1 {
				w.moveEject(node, rt, router.Lane(g<<6+bits.TrailingZeros64(m)))
			}
		}
	}
	for ; ports != 0; ports &= ports - 1 {
		if lane, ok := rt.Grant(bits.TrailingZeros64(ports)); ok {
			w.moveNetwork(node, rt, lane)
		}
	}
}

// switchOne is switchPorts for a router whose only buffered, routed lane is
// `lane`: eject, or check the credit and move. With one candidate the
// arbiter computes k = RROut mod 1 = 0, grants rank 0 and wraps RROut to 0,
// and no grant leaves RROut untouched — so this is bit for bit what
// router.Grant does, without asking every port. It neither reads nor sets
// the lane's credit-parking mark: one credit check a cycle is all a parked
// lone lane costs, and the sparse network's visit stays as short as it was.
//
//simlint:phase compute
func (w *worker) switchOne(node topology.NodeID, rt *router.Router, lane router.Lane) {
	ivc := &rt.In[lane]
	if rt.ToEject(lane) {
		w.moveEject(node, rt, lane)
		return
	}
	out := ivc.OutPort
	if rt.Out[rt.OutIndex(topology.Port(out), int(ivc.OutVC))].Credits == 0 {
		return
	}
	w.moveNetwork(node, rt, lane)
	rt.RROut[out] = 0
}

// moveNetwork sends the front flit of an input lane through its allocated
// output VC to the neighbouring router.
//
//simlint:phase compute
func (w *worker) moveNetwork(node topology.NodeID, rt *router.Router, lane router.Lane) {
	nw := w.nw
	ivc := &rt.In[lane]
	f := rt.PopLane(lane)
	outPort := topology.Port(ivc.OutPort)
	o := rt.OutIndex(outPort, int(ivc.OutVC))
	rt.Out[o].Credits--
	lk, lat := nw.linkFor(node, outPort), nw.p.LinkLatency
	if nw.lat != nil {
		lat = int64(nw.lat[int(node)*nw.degree+int(outPort)])
	}
	if f.IsHead() {
		m := nw.pool.At(f.Ref())
		if lk.wraps() {
			m.Crossed[outPort.Dim()] = true
		}
		w.emitTrace(phSwitch, trace.Hop, m.ID, topology.NodeID(lk.dst()))
	}
	w.stageArrival(arrivalEvent{
		dueAt: nw.now + lat - 1,
		node:  lk.dst(),
		lane:  router.Lane(nw.back(outPort) + int(ivc.OutVC)),
		flit:  f,
	})
	w.returnCredit(node, rt, lane)
	if f.IsTail() {
		rt.Release(o)
		rt.ClearRoute(lane)
		nw.refreshReady(rt, lane)
	}
}

// refreshReady re-arms the routing-decision timer when a new worm's head
// becomes the buffer front after the previous tail left.
func (nw *Network) refreshReady(rt *router.Router, lane router.Lane) {
	if nf, ok := rt.Front(lane); ok && nf.IsHead() {
		nw.holdHead(rt, lane, nw.now+1)
	}
}

// holdHead starts the decision time of the head that just became the front
// of a lane: it may route from cycle from + Td on. No-op when Td = 0.
func (nw *Network) holdHead(rt *router.Router, lane router.Lane, from int64) {
	if nw.readyAt != nil {
		nw.readyAt[int(rt.ID)*len(rt.In)+int(lane)] = from + nw.p.Td
	}
}

// moveEject drains the front flit of input (port, vc) into the local PE /
// messaging layer and finalises the worm when its tail arrives. The
// local state transitions (buffer pop, requeue, header rewrite) happen
// here; the shared-state finalisation — tracing, metrics, returning the
// message to the pool, the in-flight counter — is staged through the
// worker's effect log (emit) for the ordered commit.
//
//simlint:phase compute
func (w *worker) moveEject(node topology.NodeID, rt *router.Router, lane router.Lane) {
	nw := w.nw
	f := rt.PopLane(lane)
	w.returnCredit(node, rt, lane)
	if !f.IsTail() {
		return
	}
	rt.ClearRoute(lane)
	nw.refreshReady(rt, lane)
	ref := f.Ref()
	m := nw.pool.At(ref)
	reason := m.Pending
	m.Pending = message.StopNone
	switch reason {
	case message.StopDeliver:
		w.emit(phSwitch, fxRec{kind: fxDeliver, ref: ref, msg: m.ID, node: node})
	case message.StopVia:
		w.emit(phSwitch, fxRec{kind: fxStopVia, ref: ref, msg: m.ID, node: node})
		m.PopViasAt(node)
		m.ResetForReinjection()
		nw.requeue(node, ref)
	case message.StopFault:
		w.emit(phSwitch, fxRec{kind: fxStopFault, ref: ref, msg: m.ID, node: node})
		m.ResetForReinjection()
		nw.requeue(node, ref)
	case message.StopDrop:
		w.emit(phSwitch, fxRec{kind: fxDropEject, ref: ref, msg: m.ID, node: node})
	default:
		panic(fmt.Sprintf("network: worm ejected with no stop reason: %v", m))
	}
}

// requeue places an absorbed message on the node's priority re-injection
// queue, eligible after the software overhead Δ. Runs inside the node's own
// visit, so raising the flag is enough to keep the router active.
func (nw *Network) requeue(node topology.NodeID, ref message.Ref) {
	nw.pool.Enqueue(&nw.reQ[node], ref, nw.now+nw.p.Delta)
	nw.soft[node] = softRun
}

// returnCredit stages a credit for the upstream output VC feeding an
// input lane of node that just popped a flit. Injection-port buffers are
// fed by the local source, which checks space directly, so they carry no
// credits: the freed slot wakes a stalled software layer instead, in time
// for this visit's inject step.
//
//simlint:phase compute
func (w *worker) returnCredit(node topology.NodeID, rt *router.Router, lane router.Lane) {
	nw := w.nw
	port, vc := rt.LanePortVC(lane)
	if port >= nw.degree {
		if nw.soft[node] == softStalled {
			nw.soft[node] = softRun
		}
		return
	}
	lk := nw.linkFor(node, topology.Port(port))
	ev := creditEvent{
		dueAt: nw.now + nw.p.CreditDelay - 1,
		node:  lk.dst(),
		out:   int32(nw.back(topology.Port(port)) + vc),
	}
	d := nw.dom[lk.dst()]
	w.outCred[d] = append(w.outCred[d], ev)
}

// injectNode runs one node's software-layer injection for this cycle: at
// most one flit moves from the software layer into the injection input
// port, new streams starting as injection VCs free up. Re-injected
// (absorbed) messages always start before new messages.
//
// A layer that neither started a stream nor moved a flit is stalled: every
// stream's injection buffer is full, and the next eligible message (if
// any) found no free injection VC. Unless a re-injection is waiting out Δ —
// the one input that changes with the clock alone — running the step again
// gives the same nothing until an injection-port lane pops (returnCredit),
// a message is pushed (markSoft, requeue) or a fault transition rewrites
// the layer (applyTransitions), and each of those wakes it; rrInj moves
// only on a grant, so the skipped steps leave no trace.
//
//simlint:phase compute
func (w *worker) injectNode(node topology.NodeID) {
	nw := w.nw
	started := w.startStreams(node)
	ss := nw.streamsOf(node)
	n := len(ss)
	if n == 0 && nw.newQ[node].Empty() && nw.reQ[node].Empty() {
		// Nothing streaming and both queues empty (a re-injection still
		// waiting out Δ counts): the software layer is idle.
		nw.soft[node] = softIdle
		return
	}
	if n > 0 {
		rt := &nw.routers[node]
		// Round-robin across active streams for the single injection
		// channel's flit slot (same wrap discipline as router.Grant).
		k := int(nw.rrInj[node])
		for k >= n {
			k -= n
		}
		for i := 0; i < n; i++ {
			idx := k
			if k++; k == n {
				k = 0
			}
			s := &ss[idx]
			lane := rt.LaneOf(rt.InjectionPort(), int(s.vc))
			if rt.Space(lane) == 0 {
				continue
			}
			// Injection is a local wire: the flit lands in the node's own
			// injection lane now, which nothing reads before its next visit.
			msgLen := nw.pool.At(s.ref).Len
			w.applyArrival(arrivalEvent{
				node: int32(node), lane: lane,
				flit: message.MakeFlit(s.ref, int(s.seq), msgLen),
			})
			s.seq++
			nw.rrInj[node] = uint8(k)
			if int(s.seq) == msgLen {
				// Stream complete; remove, preserving order.
				copy(ss[idx:], ss[idx+1:])
				nw.nstreams[node]--
			}
			return
		}
	}
	if !started && (nw.reQ[node].Empty() || nw.reReady(node)) {
		nw.soft[node] = softStalled
	}
}

// startStreams claims free injection VCs for queued messages, priority
// queue first, and reports whether it took anything off a queue. A
// message's header is validated against the fault set at start time: a
// blocked first hop is re-planned in software before the worm ever enters
// the network.
//
//simlint:phase compute
func (w *worker) startStreams(node topology.NodeID) (started bool) {
	nw := w.nw
	rt := &nw.routers[node]
	inj := rt.LaneOf(rt.InjectionPort(), 0)
	end := inj + router.Lane(nw.p.V)
	for {
		q := nw.nextQueue(node)
		if q == nil {
			return started
		}
		ref, _ := nw.pool.Head(*q)
		// Find a free injection VC: the lowest idle injection lane (empty
		// buffer, no route held) no stream is feeding.
		lane := rt.IdleLane(inj, end)
		for lane >= 0 && nw.streaming(node, int(lane-inj)) {
			lane = rt.IdleLane(lane+1, end)
		}
		if lane < 0 {
			return started
		}
		started = true
		m := nw.pool.At(ref)
		nw.pool.Dequeue(q)
		if !w.prepareForInjection(node, m) {
			// Undeliverable: drop it and keep scanning the queue.
			w.emit(phInject, fxRec{kind: fxDropInject, ref: ref, msg: m.ID, node: node})
			continue
		}
		nw.streams[int(node)*nw.p.V+int(nw.nstreams[node])] = stream{ref: ref, vc: uint8(lane - inj)}
		nw.nstreams[node]++
		w.emit(phInject, fxRec{kind: fxInject, ref: ref, msg: m.ID, node: node})
	}
}

// streaming reports whether one of node's streams feeds injection VC vc.
func (nw *Network) streaming(node topology.NodeID, vc int) bool {
	for _, s := range nw.streamsOf(node) {
		if int(s.vc) == vc {
			return true
		}
	}
	return false
}

// trace forwards an event to the configured tracer, if any.
func (nw *Network) trace(kind trace.Kind, msg uint64, node topology.NodeID) {
	if nw.p.Tracer != nil {
		nw.p.Tracer.Trace(trace.Event{Cycle: nw.now, Msg: msg, Kind: kind, Node: node})
	}
}

// nextQueue returns the queue of node whose front message injects next, or
// nil when neither has an eligible one. Re-injections normally have
// absolute priority; with NoReinjectPriority set, fresh traffic is served
// first (the starvation ablation).
func (nw *Network) nextQueue(node topology.NodeID) *message.Queue {
	newQ := &nw.newQ[node]
	if nw.p.NoReinjectPriority && !newQ.Empty() {
		return newQ
	}
	if nw.reReady(node) {
		return &nw.reQ[node]
	}
	if !nw.p.NoReinjectPriority && !newQ.Empty() {
		return newQ
	}
	return nil
}

// reReady reports whether the front of node's re-injection queue has
// waited out Δ.
func (nw *Network) reReady(node topology.NodeID) bool {
	if q := nw.reQ[node]; !q.Empty() {
		_, at := nw.pool.Head(q)
		return at <= nw.now
	}
	return false
}

// prepareForInjection runs the injection-time fault check: if the message's
// required first hop is faulty, the messaging layer replans before the worm
// enters the network. Reports false when the message is undeliverable.
//
//simlint:phase compute
func (w *worker) prepareForInjection(node topology.NodeID, m *message.Message) bool {
	for guard := 0; guard < 4; guard++ {
		dec := w.alg.Route(node, m)
		switch dec.Outcome {
		case routing.Progress, routing.Deliver:
			return true
		case routing.ViaArrived:
			m.PopViasAt(node)
		case routing.AbsorbFault:
			if !w.alg.Plan(node, m, dec.BlockedDim, dec.BlockedDir) {
				return false
			}
		}
	}
	return true
}

// queueArrival inserts one staged transfer into a due-ordered arrival
// queue, keeping same-due events in staging order. Under uniform link
// latency a newer event is never due before the queue's tail, so it is
// appended; a latmap overlay mixes latencies, so the event is then inserted
// at its due position (after every event with the same due cycle,
// preserving deterministic same-cycle application order). Every domain
// queues under this one rule, which is what makes the per-domain queues
// apply each receiver's events in the one-domain order.
func queueArrival(q []arrivalEvent, ev arrivalEvent) []arrivalEvent {
	n := len(q)
	if n == 0 || q[n-1].dueAt <= ev.dueAt {
		return append(q, ev)
	}
	i := sort.Search(n, func(i int) bool { return q[i].dueAt > ev.dueAt })
	q = append(q, arrivalEvent{})
	copy(q[i+1:], q[i:])
	q[i] = ev
	return q
}

// applyArrival commits one flit into its destination buffer and activates
// the receiving router: a staged link transfer in phase B, or an injected
// flit during its own node's visit. A worker only ever applies arrivals
// addressed to its own domain, so the mark goes into its own active set.
func (w *worker) applyArrival(a arrivalEvent) {
	nw := w.nw
	rt := &nw.routers[a.node]
	rt.PushLane(a.lane, a.flit)
	w.mark(topology.NodeID(a.node))
	if a.flit.IsHead() && rt.Len(a.lane) == 1 {
		// Became front: routing decision earliest next cycle.
		nw.holdHead(rt, a.lane, nw.now+1)
	}
}

// sliceTail drops the first n elements, compacting storage when the queue
// empties so long runs do not leak backing arrays.
func sliceTail[T any](q []T, n int) []T {
	if n == 0 {
		return q
	}
	if n == len(q) {
		return q[:0]
	}
	m := copy(q, q[n:])
	return q[:m]
}
