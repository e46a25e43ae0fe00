package network

import (
	"cmp"
	"fmt"
	"slices"
	"testing"
	"time"
)

// buffered sums the flits in every router's input lanes.
func buffered(nw *Network) int {
	n := 0
	for id := range nw.routers {
		for _, l := range nw.routers[id].Lanes() {
			n += nw.routers[id].Len(l)
		}
	}
	return n
}

// phaseClock is the stepClock TestPhaseTable installs: it charges the time
// between two marks to the stage the later one closes. On several workers a
// phase ends with two marks — the stepping goroutine's own share, then the
// barrier — and the stretch between them is time spent waiting.
type phaseClock struct {
	last  time.Time
	own   time.Duration // a phase's own share, until its closing mark says which phase
	spent [numMarks]time.Duration
	wait  time.Duration
	steps int
}

func (c *phaseClock) mark(m stepMark) {
	now := time.Now()
	d := now.Sub(c.last)
	switch {
	case m == markStart:
		c.steps++
	case m == markOwnShare:
		c.own = d
	case c.own > 0:
		c.spent[m] += c.own
		c.wait += d
		c.own = 0
	default:
		c.spent[m] += d
	}
	c.last = time.Now()
}

// TestPhaseTable prints (-v) where a Step's time goes on the four engine
// shapes of bench/, serial and on two workers: the shares of the serial
// transition point (fault schedule + replan, traffic poll), phase A (the
// router visits), the effect-log replay, phase B (staged arrivals and
// credits) and, on two workers, the barrier wait of the stepping goroutine,
// plus the nanoseconds of serial Step time per flit move — one flit popped
// by a visit, into a link or the ejection port. ARCHITECTURE.md's phase
// table is this test's output. The clock is this file's: the engine only
// reports that it passed a mark (Network.stepClock, nil in production). The
// moves are counted in a run of their own, so counting them costs the timed
// run nothing; the runs are deterministic, so they are the same moves.
// Under -v each cell is timed phaseRuns times and the row is the run of
// median Step time, with the fastest and slowest run's µs per Step beside
// it; without -v one timed run per cell keeps the checks and the test cheap.
func TestPhaseTable(t *testing.T) {
	if testing.Short() {
		t.Skip("times eight cells of 200 to 30000 cycles")
	}
	runs := 1
	if testing.Verbose() {
		runs = phaseRuns
	}
	t.Logf("| shape | workers | µs per Step (min–max of %d) | transition + replan | traffic poll | phase A | effect replay | phase B | barrier wait | ns per flit move |", runs)
	t.Logf("|---|---|---|---|---|---|---|---|---|---|")
	for _, s := range compositionShapes {
		moves, before := 0, 0
		nw := s.build(t, 1, nil)
		nw.stepClock = func(m stepMark) {
			switch m {
			case markPoll: // phase A only pops, phase B only pushes
				before = buffered(nw)
			case markPhaseA:
				moves += before - buffered(nw)
			}
		}
		for nw.Now() < s.cycles {
			nw.Step()
		}
		if moves == 0 {
			t.Fatalf("%s: no flit moved in %d cycles", s.name, s.cycles)
		}
		for _, workers := range []int{1, 2} {
			clocks := make([]phaseClock, runs)
			for i := range clocks {
				c := &clocks[i]
				nw := s.build(t, workers, nil)
				nw.stepClock = c.mark
				for nw.Now() < s.cycles {
					nw.Step()
				}
				if c.steps != int(s.cycles) || (c.wait > 0) != (workers > 1) {
					t.Errorf("%s on %d workers: %d Steps clocked in %d cycles, barrier wait %v", s.name, workers, c.steps, s.cycles, c.wait)
				}
			}
			slices.SortFunc(clocks, func(a, b phaseClock) int { return cmp.Compare(a.total(), b.total()) })
			c := clocks[runs/2]
			total := c.total()
			perStep := func(c phaseClock) float64 { return float64(c.total().Microseconds()) / float64(c.steps) }
			pct := func(d time.Duration) string { return fmt.Sprintf("%.1f %%", 100*float64(d)/float64(total)) }
			perMove := "—"
			if workers == 1 {
				perMove = fmt.Sprintf("%.0f", float64(total.Nanoseconds())/float64(moves))
			}
			t.Logf("| `%s` | %d | %.1f (%.1f–%.1f) | %s | %s | %s | %s | %s | %s | %s |", s.name, workers,
				perStep(c), perStep(clocks[0]), perStep(clocks[runs-1]),
				pct(c.spent[markTransition]), pct(c.spent[markPoll]), pct(c.spent[markPhaseA]),
				pct(c.spent[markCommit]), pct(c.spent[markPhaseB]), pct(c.wait), perMove)
		}
	}
}

// phaseRuns is how many times TestPhaseTable times each cell under -v.
const phaseRuns = 5

// total is the clocked time of every Step, barrier waits included.
func (c *phaseClock) total() time.Duration {
	t := c.wait
	for _, d := range c.spent {
		t += d
	}
	return t
}

// TestStepClockInert holds the hook to its promise: with one installed, a
// static, a scheduled and a saturated golden cell — serial and on three
// workers — trace to their pinned hashes, every Step reports every mark,
// and a warmed-up serial Step still allocates nothing.
func TestStepClockInert(t *testing.T) {
	for _, name := range []string{"torus-det-faulted", "torus-adaptive-mtbf", "torus-adaptive-saturated"} {
		c := goldenCell(t, name)
		for _, workers := range []int{1, 3} {
			var seen [numMarks]int
			steps := 0
			ev := runGolden(t, c, workers, func(nw *Network) {
				steps++
				nw.stepClock = func(m stepMark) { seen[m]++ } // from the second Step on
			})
			if h := traceHash(ev); h != c.golden {
				t.Errorf("%s on %d workers with a step clock: trace hash = %#x, want %#x", name, workers, h, c.golden)
			}
			for m, n := range seen {
				want := steps - 1
				if stepMark(m) == markOwnShare {
					want = 2 * (steps - 1) * min(workers-1, 1) // both phases, several workers only
				}
				if n != want {
					t.Errorf("%s on %d workers: mark %d reported %d times in %d Steps, want %d", name, workers, m, n, steps-1, want)
				}
			}
		}
	}
	nw := compositionShapes[0].build(t, 1, nil)
	var seen [numMarks]int
	nw.stepClock = func(m stepMark) { seen[m]++ }
	for nw.Now() < 2000 {
		nw.Step()
	}
	if allocs := testing.AllocsPerRun(500, nw.Step); allocs != 0 {
		t.Errorf("a clocked steady-state Step allocates %.0f objects, want 0", allocs)
	}
}
