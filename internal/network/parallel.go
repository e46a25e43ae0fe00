package network

// Stepping: the routers are partitioned into P contiguous node-id domains,
// each stepped by one worker; the serial engine is the one-domain case of
// the same loop (its one worker runs on the calling goroutine and stages
// into its own mailbox). A cycle runs in two phases separated by barriers:
//
//	phase A (parallel)  one visit per active router of the domain, node-
//	                    ascending: route/allocate → switch → inject →
//	                    retire while its state is loaded, with every
//	                    cross-router or shared-state effect staged, never
//	                    applied: flit transfers over links and credit
//	                    returns go into per-(sender→receiver) mailboxes,
//	                    trace/metrics/pool/counter effects into per-phase
//	                    effect logs; an injected flit is the one local
//	                    effect, pushed straight into the router's own
//	                    injection lane, which no other visit reads;
//	commit  (serial)    the effect logs replay phase-major, domain-
//	                    ascending — every routing effect in node order,
//	                    then every switch effect, then every injection —
//	                    so each order-sensitive shared structure (the
//	                    trace byte stream, the collector's float
//	                    accumulators, the pool's LIFO free lists) mutates
//	                    in one order whatever the worker count;
//	phase B (parallel)  each worker applies the due events of its own
//	                    queues, then those of the mailboxes addressed to
//	                    its domain in sender-ascending order (the staging
//	                    order of one domain), straight from the boxes, to
//	                    its own routers, re-activating the receivers;
//	                    only events not yet due are queued.
//
// Determinism rests on three invariants: (1) within a cycle, a router's
// visit reads and writes only its own lanes, queues and streams plus
// immutable shared structure (topology, fault set, link table) and the
// message header of worms whose head flit it holds — the single-owner
// rule, which makes router-major visits equal to phase-major passes and
// any domain split equal to any other; (2) the commit replays effects in
// the one phase-major, node-ascending order; (3) phase B applies each
// receiver's events in the one-domain relative order (sender-ascending,
// same due-position insertion), and the remaining same-cycle effects
// (credit increments, pushes to distinct lanes) commute. Together these
// make the engine bit-identical for any worker count, enforced by
// TestParallelMatchesSerial and TestGoldenTraceMatrix.
import (
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"

	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Phase indices for the per-phase effect logs: the reference order is
// route/allocate, switch traversal, then injection, each over all routers,
// so a visit files each effect under the step that produced it and the
// replay groups them that way.
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

// worker is one stepping domain: its routers' active set, its mailboxes and
// queues, and a private routing-algorithm instance, since a
// routing.Router's decision scratch is not goroutine-safe. The serial
// engine is one worker whose domain is every router.
type worker struct {
	nw *Network
	id int

	// [loNode, hiNode) is the domain's node-id range.
	loNode, hiNode topology.NodeID

	// act is the domain's active-router set — the scheduler's first level:
	// bit (id − loNode) is set while router id can make progress. Events
	// set bits (mark: generated traffic, flit arrivals, re-injections), a
	// visit clears its router once it is fully drained (no buffered flits,
	// software-layer flag down). Each domain owns whole words, so no two
	// goroutines ever share one. Phase A walks the bits in ascending node
	// order — the order of a dense scan, which is what makes the scheduler
	// rng-transparent.
	act []uint64

	alg routing.Router

	// freeVCs is the route step's candidate-VC scratch.
	freeVCs []routing.CandidateVC

	// fx holds the per-phase effect logs phase A appends to (see emit).
	fx [numPhases][]fxRec

	// outArr[d] / outCred[d] are the mailboxes of staged link transfers /
	// credit returns addressed to domain d (injection stages nothing: its
	// flit is applied in place). Only this worker appends (phase A); only
	// worker d drains (phase B) — no two goroutines ever touch the same box
	// in the same phase.
	outArr  [][]arrivalEvent
	outCred [][]creditEvent

	// arrQ/credQ are the domain's in-flight link-transfer and credit
	// queues: phase B queues there only what the mailboxes hold that is not
	// yet due, so between Steps both hold only events due later.
	arrQ  []arrivalEvent
	credQ []creditEvent
}

// mark puts a router of this domain into the active set. Idempotent.
func (w *worker) mark(id topology.NodeID) {
	i := uint(id - w.loNode)
	w.act[i>>6] |= 1 << (i & 63)
}

// initWorkers builds the stepping domains: Params.Workers of them, clamped
// to [1, nodes]. Domain bounds are the contiguous ranges
// [i*N/P, (i+1)*N/P); worker 0 takes the engine's algorithm instance alg0,
// the rest clone through Params.AlgFactory.
func (nw *Network) initWorkers(alg0 routing.Router) {
	nodes := nw.t.Nodes()
	p := max(1, min(nw.p.Workers, nodes))
	if p > 1 && nw.p.AlgFactory == nil {
		panic("network: Workers > 1 requires Params.AlgFactory (each worker needs its own routing scratch)")
	}
	nw.dom = make([]int32, nodes)
	nw.doms = make([]*worker, p)
	for i := 0; i < p; i++ {
		lo := topology.NodeID(i * nodes / p)
		hi := topology.NodeID((i + 1) * nodes / p)
		alg := alg0
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
		nw.doms[i] = &worker{
			nw: nw, id: i, loNode: lo, hiNode: hi, alg: alg,
			act:     make([]uint64, (int(hi-lo)+63)/64),
			outArr:  make([][]arrivalEvent, p),
			outCred: make([][]creditEvent, p),
		}
		for n := lo; n < hi; n++ {
			nw.dom[n] = int32(i)
		}
	}
}

// emit stages one shared-state effect into the log of the step (ph) that
// produced it; commitEffects applies it.
//
//simlint:phase compute
func (w *worker) emit(ph int, r fxRec) {
	w.fx[ph] = append(w.fx[ph], r)
}

// emitTrace stages a bare tracer event the same way. Skipped entirely when
// no tracer is attached, so the staging cost is zero for measurement runs.
//
//simlint:phase compute
func (w *worker) emitTrace(ph int, tk trace.Kind, msg uint64, node topology.NodeID) {
	if w.nw.p.Tracer != nil {
		w.fx[ph] = append(w.fx[ph], fxRec{kind: fxTrace, tk: tk, msg: msg, node: node})
	}
}

// applyFx performs one effect against the engine's shared state; only the
// commit calls it, replaying the logs in phase-major, node-ascending order.
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
		nw.pool.Free(r.ref)
	case fxDropInject:
		nw.col.Dropped(nw.pool.At(r.ref))
		nw.pool.Free(r.ref)
	case fxInject:
		nw.inFlight++
		nw.trace(trace.Inject, r.msg, r.node)
	}
}

// stageArrival files a staged link transfer in the mailbox of the
// destination router's domain.
func (w *worker) stageArrival(ev arrivalEvent) {
	d := w.nw.dom[ev.node]
	w.outArr[d] = append(w.outArr[d], ev)
}

// barrier collects the panics of one phase's workers (one heap object per
// phase).
type barrier struct {
	wg    sync.WaitGroup
	mu    sync.Mutex
	first error
}

// run executes f on w, keeping the first panic of the phase.
func (b *barrier) run(w *worker, f func(*worker)) {
	defer func() {
		if v := recover(); v != nil {
			b.mu.Lock()
			if b.first == nil {
				b.first = fmt.Errorf("network: panic in worker %d: %v\n%s", w.id, v, debug.Stack())
			}
			b.mu.Unlock()
		}
	}()
	f(w)
}

// runParallel executes f on every worker, worker 0 on the calling
// goroutine — for the serial engine that is all there is. Goroutines are
// spawned per phase: the engine holds no long-lived workers, so abandoned
// engines (sweep instances) need no shutdown and the serial engine pays
// nothing. A panic in any worker, worker 0 included, is caught where it
// happens, and the first one is raised again on the stepping goroutine
// after the barrier — where the caller's recover (core.runPointSafe) can
// see it, and when no goroutine is stepping the engine any more.
func (nw *Network) runParallel(f func(*worker)) {
	if len(nw.doms) == 1 {
		f(nw.doms[0])
		return
	}
	b := new(barrier)
	for _, w := range nw.doms[1:] {
		b.wg.Add(1)
		go func(w *worker) {
			defer b.wg.Done()
			b.run(w, f)
		}(w)
	}
	b.run(nw.doms[0], f)
	nw.stamp(markOwnShare)
	b.wg.Wait()
	if b.first != nil {
		panic(b.first)
	}
}

// phaseA visits every router in the domain's active set once, in ascending
// node order, and retires those a visit leaves drained. Clearing the bit
// here equals clearing it after phase B's arrivals: applyArrival re-marks
// the receiver.
//
//simlint:phase compute
func (w *worker) phaseA() {
	for i, m := range w.act {
		for ; m != 0; m &= m - 1 {
			if !w.visit(w.loNode + topology.NodeID(i<<6+bits.TrailingZeros64(m))) {
				w.act[i] &^= m & -m
			}
		}
	}
}

// commitEffects replays every worker's effect logs phase-major and
// domain-ascending. Within a phase each worker staged its effects while
// visiting its routers in ascending node order, and domains cover
// ascending node ranges, so the replay order is the global node-ascending
// order of that phase — on one domain or on many.
//
//simlint:phase commit
func (nw *Network) commitEffects() {
	for ph := 0; ph < numPhases; ph++ {
		for _, w := range nw.doms {
			for _, r := range w.fx[ph] {
				nw.applyFx(r)
			}
			w.fx[ph] = w.fx[ph][:0]
		}
	}
}

// phaseB applies the staged transfers due at the end of this cycle to the
// worker's own domain. With the default unit link latency and credit delay
// every staged event is due immediately; longer latencies leave a
// due-ordered tail in flight. Each (sender, receiver) mailbox is drained
// only here, only by its receiver, after the phase barrier — so phase B
// reads nothing any other goroutine is writing.
//
// Each mailbox is applied in place: the due prefix of the domain's own
// queue first (events staged in earlier cycles), then every box addressed
// to the domain in sender order, an event due now applied straight from
// its box and one not yet due queued under queueArrival's rule. That is
// the order merging the boxes into the queue and applying its due prefix
// would give, for any latency: a newly staged event is due no earlier than
// now, and the queue rule puts one due now after every older event due
// now. So between Steps the boxes are empty and the queues hold only
// events not yet due — nothing at all under unit latency and credit delay.
// Injection never reaches the boxes: a visit pushes its flit into its own
// injection lane, which receives nothing else.
//
//simlint:phase commit
func (w *worker) phaseB() {
	nw := w.nw
	i := 0
	for ; i < len(w.arrQ) && w.arrQ[i].dueAt <= nw.now; i++ {
		w.applyArrival(w.arrQ[i])
	}
	w.arrQ = sliceTail(w.arrQ, i)
	for _, src := range nw.doms {
		box := src.outArr[w.id]
		for _, ev := range box {
			if ev.dueAt <= nw.now {
				w.applyArrival(ev)
			} else {
				w.arrQ = queueArrival(w.arrQ, ev)
			}
		}
		src.outArr[w.id] = box[:0]
	}
	// Credits: a constant CreditDelay keeps each queue due-ordered under
	// plain appends, and same-cycle increments commute. A credit wakes the
	// lane parked on its output VC (router.Credit).
	j := 0
	for ; j < len(w.credQ) && w.credQ[j].dueAt <= nw.now; j++ {
		c := w.credQ[j]
		nw.routers[c.node].Credit(int(c.out))
	}
	w.credQ = sliceTail(w.credQ, j)
	for _, src := range nw.doms {
		box := src.outCred[w.id]
		for _, c := range box {
			if c.dueAt <= nw.now {
				nw.routers[c.node].Credit(int(c.out))
			} else {
				w.credQ = append(w.credQ, c)
			}
		}
		src.outCred[w.id] = box[:0]
	}
}
