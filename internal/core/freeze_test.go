package core

import "testing"

// TestDemonstratedDeadlock pins the one dynamic deadlock seen so far:
// faulted adaptive tori that stop delivering for good while messages are
// still in flight. Generation runs to cycle 20 000 and is then stopped; by
// 60 000 a network that can drain has drained. R1 is sat-adaptive's fault
// placement at V 4 and one-flit buffers; R2 is the placement of
// internal/deadlock's cdg.golden cell "adaptive torus:k=8,n=2
// random:nf=3,seed=3" (cyclic there, at V 4) run at V 3. The cycle of the
// last delivery and the messages left in flight are asserted exactly, so a
// change that moves the freeze is seen; a fix that drains them makes this
// test fail, and then it becomes that fix's acceptance. The control is det
// on the same placements, which drains (given a shorter run, to keep the
// test cheap).
func TestDemonstratedDeadlock(t *testing.T) {
	r1 := DefaultConfig(16, 2, 0.05)
	r1.Faults.RandomNodes, r1.Seed, r1.V, r1.MsgLen = 6, 1, 4, 16
	r2 := DefaultConfig(8, 2, 0.1)
	r2.Faults.RandomNodes, r2.Seed, r2.V, r2.MsgLen = 3, 3, 3, 8
	// run steps c under alg to stop, stops generation, and steps on while
	// more holds; it returns the cycle of the last delivery and the
	// messages still in flight.
	run := func(c Config, alg string, stop int64, more func(*Engine) bool) (last int64, inFlight int) {
		t.Helper()
		c.Algorithm, c.BufDepth = alg, 1
		c.WarmupMessages, c.MeasureMessages = 0, 1<<30 // no quota ends the run
		e, err := NewEngine(c)
		if err != nil {
			t.Fatal(err)
		}
		var seen uint64
		for e.Now() < stop || more(e) {
			if e.Now() == stop {
				e.Network().StopGeneration()
			}
			e.Step()
			if d := e.col.DeliveredCount(); d != seen {
				seen, last = d, e.Now()
			}
		}
		return last, e.Network().InFlight()
	}
	until := func(end int64) func(*Engine) bool { return func(e *Engine) bool { return e.Now() < end } }
	for _, tc := range []struct {
		name     string
		c        Config
		last     int64
		inFlight int
		detStop  int64
	}{
		{"R1", r1, 4066, 1000, 1000},
		{"R2", r2, 18989, 183, 2000},
	} {
		last, inFlight := run(tc.c, "adaptive", 20000, until(60000))
		if last != tc.last || inFlight != tc.inFlight {
			t.Errorf("%s adaptive: last delivery at cycle %d with %d in flight at 60000, pinned %d with %d",
				tc.name, last, inFlight, tc.last, tc.inFlight)
		}
		const bound = 20000
		last, inFlight = run(tc.c, "det", tc.detStop, func(e *Engine) bool {
			return e.Network().InFlight() > 0 && e.Now() < bound
		})
		if inFlight != 0 || last <= tc.detStop {
			t.Errorf("%s det: %d left in flight, last delivery at cycle %d; want a drain between %d and %d",
				tc.name, inFlight, last, tc.detStop, bound)
		}
	}
}
