package network_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/network"
)

// TestFreezeKnot pins the diagnosis of core.TestDemonstratedDeadlock's two
// freezes: driven to cycle 60 000 (generation stopped at 20 000), each
// faulted adaptive torus holds a knot of lanes none of which can ever move
// again, and the knot holds both hazards — unfaulted adaptive heads whose
// e-cube port is faulty, so Route offers them no escape channel, and
// faulted worms, which route on their dateline bank, holding routes to the
// adaptive VCs 2 and up. The det controls on the same placements have no
// knot. A fix of the freeze empties both knots and makes this test fail;
// it then becomes that fix's acceptance.
func TestFreezeKnot(t *testing.T) {
	if testing.Short() {
		t.Skip("drives four 60 000-cycle runs")
	}
	r1 := core.DefaultConfig(16, 2, 0.05)
	r1.Faults.RandomNodes, r1.Seed, r1.V, r1.MsgLen = 6, 1, 4, 16
	r2 := core.DefaultConfig(8, 2, 0.1)
	r2.Faults.RandomNodes, r2.Seed, r2.V, r2.MsgLen = 3, 3, 3, 8
	for _, tc := range []struct {
		name                   string
		c                      core.Config
		size, noEscape, faults int
	}{
		{"R1", r1, 3253, 45, 70},
		{"R2", r2, 435, 22, 13},
	} {
		for _, alg := range []string{"adaptive", "det"} {
			c := tc.c
			c.Algorithm, c.BufDepth = alg, 1
			c.WarmupMessages, c.MeasureMessages = 0, 1<<30 // no quota ends the run
			e, err := core.NewEngine(c)
			if err != nil {
				t.Fatal(err)
			}
			for e.Now() < 60000 {
				if e.Now() == 20000 {
					e.Network().StopGeneration()
				}
				e.Step()
			}
			knot := network.Knot(e.Network())
			noEscape, faults := 0, 0
			for _, k := range knot {
				if k.NoEscape {
					noEscape++
				}
				if k.Owner != nil && k.Owner.Faulted && k.OutVC >= 2 {
					faults++
				}
			}
			if alg == "det" {
				if len(knot) != 0 {
					t.Errorf("%s det: a knot of %d lanes, want none", tc.name, len(knot))
				}
				continue
			}
			t.Logf("%s adaptive: knot of %d lanes, %d no-escape heads, %d faulted worms routed to VC >= 2", tc.name, len(knot), noEscape, faults)
			if len(knot) != tc.size || noEscape != tc.noEscape || faults != tc.faults {
				t.Errorf("%s adaptive: knot of %d lanes, %d no-escape heads, %d faulted worms on VC >= 2; pinned %d, %d, %d",
					tc.name, len(knot), noEscape, faults, tc.size, tc.noEscape, tc.faults)
			}
		}
	}
}
