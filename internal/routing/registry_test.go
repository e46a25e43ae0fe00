package routing

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/rng"
	"repro/internal/topology"
)

func TestRegistryUnknownName(t *testing.T) {
	tor := topology.New(4, 2)
	f := fault.NewSet(tor)
	_, err := New("no-such-algorithm", tor, f, 4)
	if err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	if !strings.Contains(err.Error(), "unknown algorithm") {
		t.Fatalf("error does not identify the problem: %v", err)
	}
	// The error must tell the user what IS available.
	if !strings.Contains(err.Error(), "det") {
		t.Fatalf("error does not list registered algorithms: %v", err)
	}
}

func TestRegistryDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	Register(Info{Name: "det", MinV: 2}, func(tor topology.Network, f *fault.Set, v int) (Router, error) {
		return NewDeterministic(tor, f, v)
	})
}

func TestRegistryNilFactoryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil factory did not panic")
		}
	}()
	Register(Info{Name: "test-nil-factory", MinV: 2}, nil)
}

func TestRegistryAliases(t *testing.T) {
	tor := topology.New(4, 2)
	f := fault.NewSet(tor)
	for alias, want := range map[string]string{
		"deterministic":          "sw-based-deterministic",
		"sw-based-deterministic": "sw-based-deterministic",
		"duato":                  "sw-based-adaptive",
	} {
		r, err := New(alias, tor, f, 4)
		if err != nil {
			t.Fatalf("alias %q: %v", alias, err)
		}
		if r.Name() != want {
			t.Fatalf("alias %q resolved to %q, want %q", alias, r.Name(), want)
		}
	}
}

func TestRegistryMinVEnforced(t *testing.T) {
	for _, info := range Algorithms() {
		net := topology.New(4, 2)
		f := fault.NewSet(net)
		if _, err := New(info.Name, net, f, info.MinV-1); err == nil {
			t.Errorf("%s: V=%d below MinV=%d accepted", info.Name, info.MinV-1, info.MinV)
		}
		r, err := New(info.Name, net, f, info.MinV)
		if err != nil {
			t.Errorf("%s: V=MinV=%d rejected: %v", info.Name, info.MinV, err)
			continue
		}
		if r.V() != info.MinV {
			t.Errorf("%s: V() = %d, want %d", info.Name, r.V(), info.MinV)
		}
	}
}

// TestRegistryAllRouteFaultFree is the registry's executable contract:
// every registered algorithm must route every (src, dst) pair of a
// fault-free 8-ary 2-cube to delivery within the walker's step budget
// (no livelock), with zero fault absorptions.
func TestRegistryAllRouteFaultFree(t *testing.T) {
	for _, info := range Algorithms() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			net := topology.New(8, 2)
			f := fault.NewSet(net)
			v := info.MinV
			if v < 4 {
				v = 4
			}
			a, err := New(info.Name, net, f, v)
			if err != nil {
				t.Fatal(err)
			}
			rep := AnalyzeLivelock(a)
			if rep.Pairs == 0 {
				t.Fatal("no pairs walked")
			}
			if rep.Undelivered > 0 {
				t.Fatalf("%d/%d pairs undelivered (livelock): worst %d->%d",
					rep.Undelivered, rep.Pairs, rep.WorstSrc, rep.WorstDst)
			}
			// Fault-free, no algorithm may absorb; two-phase algorithms may
			// stop once at their intermediate destination, the base ones not
			// at all.
			maxStops := 0
			if strings.HasPrefix(info.Name, "valiant") {
				maxStops = 1
			}
			if rep.MaxStops > maxStops {
				t.Fatalf("max stops %d > %d in a fault-free network", rep.MaxStops, maxStops)
			}
		})
	}
}

// TestRegistryAllRouteWithFaults repeats the contract under a connected
// random fault pattern: every registered algorithm must still deliver
// every healthy pair (the SW-Based planner guarantees this for any
// non-disconnecting pattern).
func TestRegistryAllRouteWithFaults(t *testing.T) {
	for _, info := range Algorithms() {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			net := topology.New(8, 2)
			f := mustRandomFaults(t, net, 5, 9)
			v := info.MinV
			if v < 4 {
				v = 4
			}
			a, err := New(info.Name, net, f, v)
			if err != nil {
				t.Fatal(err)
			}
			rep := AnalyzeLivelock(a)
			if rep.Undelivered > 0 {
				t.Fatalf("%d/%d pairs undelivered: worst %d->%d",
					rep.Undelivered, rep.Pairs, rep.WorstSrc, rep.WorstDst)
			}
		})
	}
}

// TestRouteAllocsEveryAlgorithm holds ARCHITECTURE.md's "the steady-state
// hot path allocates nothing" at the Route seam for every registered
// algorithm, on an 8-ary 2-cube, fault-free and faulted: the
// candidate lists live in the Algorithm's reused scratch, never in a
// per-call slice.
func TestRouteAllocsEveryAlgorithm(t *testing.T) {
	for _, info := range Algorithms() {
		t.Run(info.Name, func(t *testing.T) {
			net := topology.New(8, 2)
			for _, f := range []*fault.Set{fault.NewSet(net), mustRandomFaults(t, net, 5, 9)} {
				a, err := New(info.Name, net, f, max(info.MinV, 4))
				if err != nil {
					t.Fatal(err)
				}
				healthy := f.HealthyNodes()
				outcomes := map[Outcome]int{}
				for i, src := range healthy {
					dst := healthy[(i*7+13)%len(healthy)]
					if src == dst {
						continue
					}
					m := message.New(uint64(i), src, dst, 16, net.N(), a.BaseMode(), 0)
					var dec Decision
					if allocs := testing.AllocsPerRun(20, func() { dec = a.Route(src, m) }); allocs != 0 {
						t.Fatalf("%d->%d: %v allocs/Route, want 0", src, dst, allocs)
					}
					outcomes[dec.Outcome]++
				}
				if outcomes[Progress] == 0 {
					t.Fatalf("no Progress decision exercised: %v", outcomes)
				}
			}
		})
	}
}

// TestValiantDetourInstalledOnce drives one message header through the
// valiant algorithm and checks the detour discipline: the intermediate is
// pushed exactly once, survives re-walks, and differs across message IDs.
func TestValiantDetourInstalledOnce(t *testing.T) {
	tor := topology.New(8, 2)
	f := fault.NewSet(tor)
	va, err := NewValiant(tor, f, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := topology.NodeID(0), topology.NodeID(27)
	m := message.New(7, src, dst, 16, tor.N(), va.BaseMode(), 0)
	va.Route(src, m)
	viasAfterFirst := len(m.Via)
	if !m.Detoured {
		t.Fatal("Detoured not set by first Route")
	}
	va.Route(src, m)
	if len(m.Via) != viasAfterFirst {
		t.Fatalf("second Route changed the via stack: %d -> %d", viasAfterFirst, len(m.Via))
	}
	// Different IDs should (overwhelmingly) spread across intermediates.
	seen := make(map[topology.NodeID]bool)
	for id := uint64(0); id < 32; id++ {
		mm := message.New(id, src, dst, 16, tor.N(), va.BaseMode(), 0)
		va.Route(src, mm)
		if len(mm.Via) > 0 {
			seen[mm.Via[len(mm.Via)-1]] = true
		}
	}
	if len(seen) < 8 {
		t.Fatalf("32 messages hit only %d distinct intermediates", len(seen))
	}
}

func mustRandomFaults(t *testing.T, tor topology.Network, nf int, seed uint64) *fault.Set {
	t.Helper()
	fs, err := fault.Random(tor, nf, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return fs
}
