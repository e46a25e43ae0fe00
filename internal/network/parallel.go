package network

// Parallel stepping: the routers are partitioned into P contiguous
// node-id domains, each stepped by one worker. A cycle runs in two phases
// separated by barriers:
//
//	phase A (parallel)  per-domain route/allocate → switch → inject, with
//	                    every cross-router or shared-state effect staged
//	                    instead of applied: flit transfers and credit
//	                    returns go into per-(sender→receiver) mailboxes,
//	                    trace/metrics/pool/counter effects into per-phase
//	                    effect logs;
//	commit  (serial)    the effect logs replay phase-major, domain-
//	                    ascending — which is exactly the serial engine's
//	                    node-ascending order — so every order-sensitive
//	                    shared structure (the trace byte stream, the
//	                    collector's float accumulators, the pool's LIFO
//	                    free lists) mutates in the serial order;
//	phase B (parallel)  each worker drains the mailboxes addressed to its
//	                    domain in sender-ascending order (the serial
//	                    staging order), applies due arrivals/credits to
//	                    its own routers, and retires drained routers.
//
// Determinism rests on three invariants: (1) within a cycle, phase-A
// computation for a router reads only state owned by that router's domain
// plus immutable shared structure (topology, fault set, link table) and
// the message header of worms whose head flit it holds — the single-owner
// rule; (2) the commit replays effects in the serial engine's exact
// order; (3) phase B applies each receiver's events in the serial
// relative order (sender-ascending, same due-position insertion as the
// serial queue), and the remaining same-cycle effects (credit increments,
// pushes to distinct lanes) commute. Together these make the engine
// bit-identical to Workers <= 1 for any worker count — the same contract
// every scheduler ablation honors, enforced by TestParallelMatchesSerial.
import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Phase indices for the per-phase effect logs: the serial engine runs
// route/allocate, switch traversal, then injection for all routers, so the
// replay must group effects the same way.
const (
	phRoute = iota
	phSwitch
	phInject
	numPhases
)

// fxKind tags one staged shared-state effect.
type fxKind uint8

const (
	// fxTrace is a bare tracer event (AbsorbStart, Hop).
	fxTrace fxKind = iota
	// fxDeliver finalises a delivered worm: trace, latency sample, free.
	fxDeliver
	// fxStopVia / fxStopFault record a software-layer stop; the message
	// itself was already requeued by the computing worker (it stays
	// domain-owned), only the shared trace/metrics/counter work is staged.
	fxStopVia
	fxStopFault
	// fxDropEject finalises an undeliverable worm ejected mid-route.
	fxDropEject
	// fxDropInject finalises an undeliverable message dropped at injection
	// time (never entered the network: no trace event, no in-flight).
	fxDropInject
	// fxInject records a worm entering the network.
	fxInject
)

// fxRec is one staged effect. ref/msg/node carry whatever the kind's
// replay needs; tk only matters for fxTrace.
type fxRec struct {
	kind fxKind
	tk   trace.Kind
	ref  message.Ref
	msg  uint64
	node topology.NodeID
}

// worker is one stepping context. The serial engine owns a single direct
// worker (every effect applies immediately); each parallel domain owns a
// staging worker plus a private routing-algorithm instance, since a
// routing.Router's decision scratch is not goroutine-safe.
type worker struct {
	nw     *Network
	id     int
	direct bool

	// [loNode, hiNode) is the domain's node-id range.
	loNode, hiNode topology.NodeID

	// act is the domain's active-router set — the scheduler's first level:
	// bit (id − loNode) is set while router id can make progress. Events
	// set bits (mark: generated traffic, flit arrivals, re-injections),
	// phase B clears a router once it is fully drained (no buffered flits,
	// no queued messages, no streams). Each domain owns whole words, so no
	// two goroutines ever share one. work is the set expanded in ascending
	// node order at the start of phase A — the order of a dense scan, which
	// is what makes the scheduler rng-transparent — and walked by every
	// phase of the cycle. With Params.DenseScan every bit stays set.
	act  []uint64
	work []topology.NodeID

	alg routing.Router

	// Per-worker phase scratch: crossbar request buckets (input lanes
	// asking for each output physical channel) and the candidate-VC buffer.
	buckets [][]router.Lane
	freeVCs []routing.CandidateVC

	// ph selects which effect log phase-A appends to.
	ph int
	fx [numPhases][]fxRec

	// outArr[d] / outCred[d] are the mailboxes of staged flit transfers /
	// credit returns addressed to domain d. Only this worker appends
	// (phase A); only worker d drains (phase B) — no two goroutines ever
	// touch the same box in the same phase.
	outArr  [][]arrivalEvent
	outCred [][]creditEvent

	// injArr holds same-cycle injection-channel transfers (always
	// addressed to the worker's own domain, drained fully every cycle);
	// arrQ/credQ are the domain's in-flight link-transfer and credit
	// queues. The direct worker stages into its own queues; a domain worker
	// receives through the mailboxes above.
	injArr []arrivalEvent
	arrQ   []arrivalEvent
	credQ  []creditEvent
}

func newWorker(nw *Network, id int, direct bool, lo, hi topology.NodeID, alg routing.Router) *worker {
	w := &worker{nw: nw, id: id, direct: direct, loNode: lo, hiNode: hi, alg: alg}
	w.act = make([]uint64, (int(hi-lo)+63)/64)
	w.work = make([]topology.NodeID, 0, hi-lo)
	if nw.p.DenseScan {
		for n := lo; n < hi; n++ {
			w.mark(n)
		}
	}
	lanes := (nw.degree + 1) * nw.p.V
	backing := make([]router.Lane, nw.degree*lanes)
	w.buckets = make([][]router.Lane, nw.degree)
	for i := range w.buckets {
		w.buckets[i] = backing[i*lanes : i*lanes : (i+1)*lanes]
	}
	return w
}

// mark puts a router of this domain into the active set. Idempotent.
func (w *worker) mark(id topology.NodeID) {
	i := uint(id - w.loNode)
	w.act[i>>6] |= 1 << (i & 63)
}

// initWorkers builds the parallel domain workers when Params.Workers asks
// for more than one effective domain. Domain bounds are the contiguous
// ranges [i*N/P, (i+1)*N/P); worker 0 reuses the engine's algorithm
// instance, the rest clone through Params.AlgFactory.
func (nw *Network) initWorkers() {
	p := nw.p.Workers
	nodes := nw.t.Nodes()
	if p > nodes {
		p = nodes
	}
	if p <= 1 {
		return
	}
	if nw.p.AlgFactory == nil {
		panic("network: Workers > 1 requires Params.AlgFactory (each worker needs its own routing scratch)")
	}
	nw.dom = make([]int32, nodes)
	nw.par = make([]*worker, p)
	for i := 0; i < p; i++ {
		lo := topology.NodeID(i * nodes / p)
		hi := topology.NodeID((i + 1) * nodes / p)
		alg := nw.alg
		if i > 0 {
			a, err := nw.p.AlgFactory()
			if err != nil {
				panic(fmt.Sprintf("network: AlgFactory: %v", err))
			}
			if a.V() != nw.p.V {
				panic(fmt.Sprintf("network: AlgFactory built V=%d, engine has V=%d", a.V(), nw.p.V))
			}
			alg = a
		}
		w := newWorker(nw, i, false, lo, hi, alg)
		w.outArr = make([][]arrivalEvent, p)
		w.outCred = make([][]creditEvent, p)
		for n := lo; n < hi; n++ {
			nw.dom[n] = int32(i)
		}
		nw.par[i] = w
	}
	nw.doms = nw.par
}

// emit applies one shared-state effect: immediately on the serial path,
// staged into the current phase's log on the parallel one.
func (w *worker) emit(r fxRec) {
	if w.direct {
		w.nw.applyFx(r)
		return
	}
	w.fx[w.ph] = append(w.fx[w.ph], r)
}

// emitTrace emits a bare tracer event through the same channel. Skipped
// entirely when no tracer is attached, so the staging cost is zero for
// measurement runs.
func (w *worker) emitTrace(tk trace.Kind, msg uint64, node topology.NodeID) {
	nw := w.nw
	if nw.p.Tracer == nil {
		return
	}
	if w.direct {
		nw.p.Tracer.Trace(trace.Event{Cycle: nw.now, Msg: msg, Kind: tk, Node: node})
		return
	}
	w.fx[w.ph] = append(w.fx[w.ph], fxRec{kind: fxTrace, tk: tk, msg: msg, node: node})
}

// applyFx performs one effect against the engine's shared state. The
// serial worker calls it inline (so the serial engine's behaviour is the
// reference by construction); the parallel commit replays logs through it
// in the serial order.
//
//simlint:phase commit
func (nw *Network) applyFx(r fxRec) {
	switch r.kind {
	case fxTrace:
		nw.trace(r.tk, r.msg, r.node)
	case fxDeliver:
		nw.inFlight--
		nw.trace(trace.Deliver, r.msg, r.node)
		nw.col.Delivered(nw.pool.At(r.ref), nw.now)
		nw.pool.Free(r.ref)
	case fxStopVia:
		nw.inFlight--
		nw.trace(trace.ViaStop, r.msg, r.node)
		nw.col.Stop(nw.pool.At(r.ref), metrics.StopVia)
	case fxStopFault:
		nw.inFlight--
		nw.trace(trace.FaultStop, r.msg, r.node)
		nw.col.Stop(nw.pool.At(r.ref), metrics.StopFault)
	case fxDropEject:
		nw.inFlight--
		nw.trace(trace.Drop, r.msg, r.node)
		nw.col.Dropped(nw.pool.At(r.ref))
		nw.dropped++
		nw.pool.Free(r.ref)
	case fxDropInject:
		nw.col.Dropped(nw.pool.At(r.ref))
		nw.dropped++
		nw.pool.Free(r.ref)
	case fxInject:
		nw.inFlight++
		nw.trace(trace.Inject, r.msg, r.node)
	}
}

// stageArrival routes a staged link transfer: onto the direct worker's own
// queue, or into the mailbox of the destination router's domain.
func (w *worker) stageArrival(ev arrivalEvent) {
	if w.direct {
		w.arrQ = queueArrival(w.arrQ, ev, w.nw.uniformLat)
		return
	}
	d := w.nw.dom[ev.node]
	w.outArr[d] = append(w.outArr[d], ev)
}

// runParallel executes f on every worker, worker 0 on the calling
// goroutine. Goroutines are spawned per phase: the engine holds no
// long-lived workers, so abandoned engines (sweep instances) need no
// shutdown and the serial engine pays nothing.
func (nw *Network) runParallel(f func(*worker)) {
	var wg sync.WaitGroup
	for _, w := range nw.par[1:] {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			f(w)
		}(w)
	}
	f(nw.par[0])
	wg.Wait()
}

// phaseA expands the domain's active set into this cycle's worklist and
// runs the three per-router phases over it, in node-ascending, phase-major
// order: routing decisions and output-VC allocation for every head parked
// at the front of an input VC, switch allocation and link/ejection
// traversal, then software-layer injection.
//
//simlint:phase compute
func (w *worker) phaseA() {
	w.work = w.work[:0]
	for i, m := range w.act {
		for ; m != 0; m &= m - 1 {
			w.work = append(w.work, w.loNode+topology.NodeID(i<<6+bits.TrailingZeros64(m)))
		}
	}
	w.ph = phRoute
	for _, node := range w.work {
		w.routeNode(node)
	}
	w.ph = phSwitch
	for _, node := range w.work {
		w.switchNode(node)
	}
	w.ph = phInject
	for _, node := range w.work {
		w.injectNode(node)
	}
}

// commitEffects replays every worker's effect logs phase-major and
// domain-ascending. Within a phase each worker staged its effects while
// walking its work slice in ascending node order, and domains cover
// ascending node ranges, so the replay order is exactly the serial
// engine's global node-ascending order for that phase.
//
//simlint:phase commit
func (nw *Network) commitEffects() {
	for ph := 0; ph < numPhases; ph++ {
		for _, w := range nw.par {
			for _, r := range w.fx[ph] {
				nw.applyFx(r)
			}
			w.fx[ph] = w.fx[ph][:0]
		}
	}
}

// phaseB applies the staged transfers due at the end of this cycle to the
// worker's own domain and retires drained routers. With the default unit
// link latency and credit delay every staged event is due immediately;
// longer latencies leave a due-ordered tail in flight. Each (sender,
// receiver) mailbox is drained only here, only by its receiver, after the
// phase barrier — so phase B reads nothing any other goroutine is writing.
// (The direct worker has no mailboxes: nw.par is empty and it staged
// straight into arrQ/credQ.)
//
//simlint:phase commit
func (w *worker) phaseB() {
	nw := w.nw
	// Injection-channel transfers: staged by this worker, always addressed
	// to its own routers, always due this cycle.
	for _, a := range w.injArr {
		w.applyArrival(a)
	}
	w.injArr = w.injArr[:0]
	// Link transfers: merge incoming mailboxes sender-ascending with the
	// serial queue's due-position discipline, so this domain's queue holds
	// its events in the order the serial engine would have staged them.
	for _, src := range nw.par {
		box := src.outArr[w.id]
		for _, ev := range box {
			w.arrQ = queueArrival(w.arrQ, ev, nw.uniformLat)
		}
		src.outArr[w.id] = box[:0]
	}
	i := 0
	for ; i < len(w.arrQ) && w.arrQ[i].dueAt <= nw.now; i++ {
		w.applyArrival(w.arrQ[i])
	}
	w.arrQ = sliceTail(w.arrQ, i)
	// Credits: a constant CreditDelay keeps each queue due-ordered under
	// plain appends, and same-cycle increments commute.
	for _, src := range nw.par {
		box := src.outCred[w.id]
		w.credQ = append(w.credQ, box...)
		src.outCred[w.id] = box[:0]
	}
	j := 0
	for ; j < len(w.credQ) && w.credQ[j].dueAt <= nw.now; j++ {
		c := w.credQ[j]
		nw.routers[c.node].Out[c.out].Credits++
	}
	w.credQ = sliceTail(w.credQ, j)
	// Retire this cycle's drained routers; one that an arrival above just
	// re-activated is busy again and stays.
	if nw.p.DenseScan {
		return
	}
	for _, id := range w.work {
		if !nw.routerBusy(id) {
			i := uint(id - w.loNode)
			w.act[i>>6] &^= 1 << (i & 63)
		}
	}
}
