package network

import (
	"fmt"
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
)

// TestSingleRequesterMatchesArbiter is the equivalence proof of the visit's
// single-requester switch path: for a router whose only buffered, routed
// lane is one flit of a three-flit worm, every RROut start value × credit
// {0, 1} × ToEject {false, true} × flit position leaves the router (buffers,
// lane sets, credits, arbitration pointers), the worm's header, the staged
// transfers and credits and the effect logs in the same state through
// switchOne as through the bucket arbiter of switchNode.
func TestSingleRequesterMatchesArbiter(t *testing.T) {
	const (
		v, msgLen     = 2, 3
		node          = topology.NodeID(5)
		inPort, inVC  = 1, 1
		outPort, outV = 2, 0
	)
	type outcome struct {
		rt     router.Router
		msg    message.Message
		arr    []arrivalEvent
		cred   []creditEvent
		fx     [numPhases][]fxRec
		oneBit bool
	}
	run := func(start int32, credit int32, eject bool, seq int, one bool) outcome {
		tor := topology.New(4, 2)
		fs := fault.NewSet(tor)
		alg, err := routing.New("det", tor, fs, v)
		if err != nil {
			t.Fatal(err)
		}
		p := DefaultParams(v)
		p.Tracer = trace.NewRecorder() // so the Hop of a head flit is staged too
		nw := New(tor, fs, alg, nil, metrics.NewCollector(0), p, rng.New(1))
		m := nw.pool.New(7, 0, 10, msgLen, alg.BaseMode(), 0)
		m.Pending = message.StopDeliver
		w, rt := nw.sw, &nw.routers[node]
		lane := rt.LaneOf(inPort, inVC)
		rt.PushLane(lane, message.MakeFlit(nw.pool.Adopt(m), seq, msgLen))
		ivc := &rt.In[lane]
		ivc.ToEject, ivc.OutPort, ivc.OutVC = eject, outPort, outV
		rt.SetRoute(lane)
		o := rt.OutIndex(outPort, outV)
		rt.Out[o].Busy, rt.Out[o].Credits = !eject, credit
		rt.RROut[outPort] = start
		sw := rt.SwitchWord(0)
		if one {
			w.switchOne(node, rt, lane)
		} else {
			w.switchNode(node, rt)
		}
		return outcome{*rt, *m, w.arrQ, w.credQ, w.fx, rt.Words() == 1 && sw == 1<<uint(lane)}
	}
	lanes := int32((2*2 + 1) * v)
	for start := int32(0); start < lanes; start++ {
		for credit := int32(0); credit <= 1; credit++ {
			for _, eject := range []bool{false, true} {
				for seq := 0; seq < msgLen; seq++ {
					name := fmt.Sprintf("rr=%d credit=%d eject=%v seq=%d", start, credit, eject, seq)
					one, buckets := run(start, credit, eject, seq, true), run(start, credit, eject, seq, false)
					if !one.oneBit {
						t.Fatalf("%s: the set-up is not a single-requester router", name)
					}
					if !reflect.DeepEqual(one, buckets) {
						t.Errorf("%s: single-requester path and bucket arbiter disagree:\n one: %+v\nboth: %+v", name, one, buckets)
					}
					if moved, want := one.rt.Flits == 0, eject || credit > 0; moved != want {
						t.Errorf("%s: flit moved = %v, want %v", name, moved, want)
					}
				}
			}
		}
	}
}

// TestSoftFlagCoversSoftwareLayer holds the software-layer occupancy flag
// to its contract on a static, a Delta > 0 and an mtbf run, serial and on
// three domains: after every Step a non-empty queue or stream implies a
// raised flag and a raised flag implies an active router; and the flag
// outlives an emptied software layer (the last stream flit, a purged queue)
// by one visit, never longer — one Step past Idle() the active set is empty
// and every flag is down.
func TestSoftFlagCoversSoftwareLayer(t *testing.T) {
	for _, name := range []string{"torus-det-faulted", "torus-det-delta5", "torus-adaptive-mtbf"} {
		c := goldenCell(t, name)
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(t *testing.T) {
				var last *Network
				raised := 0
				runGolden(t, c, workers, func(nw *Network) {
					last = nw
					active := activeSet(nw)
					for id, up := range nw.soft {
						occupied := nw.newQ[id].Len() > 0 || nw.reQ[id].Len() > 0 || len(nw.streams[id]) > 0
						if occupied && !up {
							t.Fatalf("cycle %d node %d: software layer occupied, flag down", nw.Now(), id)
						}
						if up && !active[id] {
							t.Fatalf("cycle %d node %d: flag raised on a retired router", nw.Now(), id)
						}
						if up {
							raised++
						}
					}
				})
				if raised == 0 {
					t.Fatal("the flag was never seen raised")
				}
				last.Step()
				if n := activeRouters(last); n != 0 {
					t.Errorf("one Step past idle %d routers are still active", n)
				}
				for id, up := range last.soft {
					if up {
						t.Errorf("one Step past idle node %d still has its flag raised", id)
					}
				}
			})
		}
	}
}

// goldenCell returns the golden-matrix cell of that name.
func goldenCell(t *testing.T, name string) goldenCase {
	t.Helper()
	for _, c := range goldenMatrix {
		if c.name == name {
			return c
		}
	}
	t.Fatalf("no golden-matrix cell named %q", name)
	return goldenCase{}
}

// activeSet expands every domain's active-router set into a per-node flag.
func activeSet(nw *Network) []bool {
	active := make([]bool, len(nw.routers))
	for _, w := range nw.doms {
		for i, m := range w.act {
			for ; m != 0; m &= m - 1 {
				active[int(w.loNode)+i<<6+bits.TrailingZeros64(m)] = true
			}
		}
	}
	return active
}
