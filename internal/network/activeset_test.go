package network

import (
	"math/bits"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/routing"
	"repro/internal/topology"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestActiveSetMatchesDenseScan is the scheduler's equivalence proof at
// the event level: the active-set engine and the dense-scan engine must
// produce the exact same trace — every injection, hop, stop, re-injection
// and delivery at the same cycle — for the same seed, across routing
// algorithms and fault patterns. Anything weaker (just comparing final
// means) could hide reordered rng draws that cancel out on average.
func TestActiveSetMatchesDenseScan(t *testing.T) {
	for _, tc := range []struct {
		name string
		alg  string
		nf   int
	}{
		{"det-faultfree", "det", 0},
		{"det-faults", "det", 6},
		{"adaptive-faults", "adaptive", 6},
		{"valiant-faults", "valiant", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(dense bool) ([]trace.Event, metrics.Results) {
				tor := topology.New(8, 2)
				fs := fault.NewSet(tor)
				if tc.nf > 0 {
					var err error
					fs, err = fault.Random(tor, tc.nf, rng.New(77), fault.DefaultRandomOptions())
					if err != nil {
						t.Fatal(err)
					}
				}
				alg, err := routing.New(tc.alg, tor, fs, 4)
				if err != nil {
					t.Fatal(err)
				}
				rec := trace.NewRecorder()
				r := rng.New(123)
				gen := poissonSource(tor, fs, 0.004, 16, alg.BaseMode(), traffic.NewUniform(fs), r.Split(1))
				col := metrics.NewCollector(0)
				p := DefaultParams(4)
				p.Tracer = rec
				p.DenseScan = dense
				nw := New(tor, fs, alg, gen, col, p, r.Split(2))
				for nw.Now() < 4000 {
					nw.Step()
				}
				nw.StopGeneration()
				for !nw.Idle() && nw.Now() < 400_000 {
					nw.Step()
				}
				if !nw.Idle() {
					t.Fatal("network did not drain")
				}
				return rec.All(), col.Finalize(nw.Now(), len(fs.HealthyNodes()), false)
			}
			evActive, resActive := run(false)
			evDense, resDense := run(true)
			if len(evActive) == 0 {
				t.Fatal("no events traced")
			}
			if len(evActive) != len(evDense) {
				t.Fatalf("event counts differ: active-set %d, dense %d", len(evActive), len(evDense))
			}
			for i := range evActive {
				if evActive[i] != evDense[i] {
					t.Fatalf("event %d differs:\nactive-set: %+v\ndense-scan: %+v",
						i, evActive[i], evDense[i])
				}
			}
			if !reflect.DeepEqual(resActive, resDense) {
				t.Fatalf("results differ:\nactive-set: %+v\ndense-scan: %+v", resActive, resDense)
			}
		})
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
