package network

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// TestSchedulerSetsCoverWork checks, after every Step of every golden-matrix
// cell, the invariants that let the phases walk sets instead of scanning:
// a router buffering flits is in its domain's active set, its flit counter
// is the sum of its lane lengths, its active-lane set is exactly the
// non-empty lanes, and a parked lane holds an unrouted front. Both levels
// are walked in ascending order — the order of a dense nested scan — so a
// set that covers the work visits what the scan would, in the same order.
func TestSchedulerSetsCoverWork(t *testing.T) {
	for _, c := range goldenMatrix {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", c.name, workers), func(t *testing.T) {
				parked := 0
				runGolden(t, c, workers, func(nw *Network) {
					active := activeSet(nw)
					for id := range nw.routers {
						rt := &nw.routers[id]
						if rt.Flits > 0 && !active[id] {
							t.Fatalf("cycle %d node %d: %d buffered flits on a retired router", nw.Now(), id, rt.Flits)
						}
						listed := 0
						for _, l := range rt.Lanes() {
							if rt.Len(l) == 0 {
								t.Fatalf("cycle %d node %d lane %d: empty, yet in the active-lane set", nw.Now(), id, l)
							}
							listed++
						}
						buffering, sum := 0, 0
						for l := range rt.In {
							lane := router.Lane(l)
							n := rt.Len(lane)
							sum += n
							if n > 0 {
								buffering++
							}
							if rt.Blocked(lane) {
								parked++
								if n == 0 || rt.HasRoute(lane) {
									t.Fatalf("cycle %d node %d lane %d: parked with %d flits, routed: %v", nw.Now(), id, l, n, rt.HasRoute(lane))
								}
							}
						}
						if listed != buffering {
							t.Fatalf("cycle %d node %d: %d lanes buffer flits, the active-lane set holds %d of them", nw.Now(), id, buffering, listed)
						}
						if sum != rt.Flits {
							t.Fatalf("cycle %d node %d: Flits = %d, lanes hold %d", nw.Now(), id, rt.Flits, sum)
						}
					}
				})
				if parked == 0 && c.name == "torus-adaptive-saturated" {
					t.Error("past saturation, yet no lane was ever seen parked")
				}
			})
		}
	}
}

// TestActiveSetDrainsWorklist checks the scheduler's bookkeeping: once the
// network is idle, no router may be left in the active set (drained routers
// must retire, or Step cost degenerates to a dense scan).
func TestActiveSetDrainsWorklist(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	alg, err := routing.New("det", tor, fs, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(5)
	gen := poissonSource(tor, fs, 0.004, 16, alg.BaseMode(), traffic.NewUniform(fs), r.Split(1))
	col := metrics.NewCollector(0)
	nw := New(tor, fs, alg, gen, col, DefaultParams(4), r.Split(2))
	for nw.Now() < 2000 {
		nw.Step()
	}
	nw.StopGeneration()
	for !nw.Idle() && nw.Now() < 200_000 {
		nw.Step()
	}
	if !nw.Idle() {
		t.Fatal("network did not drain")
	}
	if n := activeRouters(nw); n != 0 {
		t.Fatalf("idle network still has %d routers in the active set", n)
	}
}

// activeRouters counts the routers in every domain's active set.
func activeRouters(nw *Network) int {
	n := 0
	for _, w := range nw.doms {
		for _, m := range w.act {
			n += bits.OnesCount64(m)
		}
	}
	return n
}
