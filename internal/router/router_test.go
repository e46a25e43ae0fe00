package router

import (
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/message"
	"repro/internal/topology"
)

// poolMsg builds a pool-registered message of the given flit length (flits
// carry pool Refs, so a bare message.New cannot materialise them).
func poolMsg(length int) *message.Message {
	return message.NewPool(2, false).New(1, 0, 1, length, message.Deterministic, 0)
}

// ring builds a one-lane-deep view of a router: the tests below drive lane
// (0, 0) as a bare FIFO of the given capacity.
func ring(capacity int) *Router { return New(0, 1, 1, capacity) }

// flits counts the flits buffered across the router's lanes.
func flits(r *Router) int {
	n := 0
	for l := range r.In {
		n += r.Len(Lane(l))
	}
	return n
}

func TestFlitQueueFIFO(t *testing.T) {
	r := ring(4)
	m := poolMsg(4)
	for i := 0; i < 4; i++ {
		r.PushLane(0, m.Flit(i))
	}
	if r.Len(0) != 4 || r.Space(0) != 0 {
		t.Fatalf("len/space = %d/%d", r.Len(0), r.Space(0))
	}
	for i := 0; i < 4; i++ {
		f, ok := r.Front(0)
		if !ok || f.Seq() != i {
			t.Fatalf("front seq = %d, want %d", f.Seq(), i)
		}
		if got := r.PopLane(0); got.Seq() != i {
			t.Fatalf("pop seq = %d, want %d", got.Seq(), i)
		}
	}
	if _, ok := r.Front(0); ok {
		t.Fatal("front on empty lane succeeded")
	}
}

func TestFlitQueueWrapsRing(t *testing.T) {
	r := ring(2)
	m := poolMsg(8)
	// Interleave push/pop so head wraps around the ring repeatedly.
	seq := 0
	r.PushLane(0, m.Flit(seq))
	seq++
	for i := 0; i < 20; i++ {
		r.PushLane(0, m.Flit(seq%8))
		seq++
		want := (seq - 2) % 8
		if got := r.PopLane(0); got.Seq() != want {
			t.Fatalf("iteration %d: pop seq %d, want %d", i, got.Seq(), want)
		}
	}
}

func TestFlitQueueOverflowPanics(t *testing.T) {
	r := ring(1)
	m := poolMsg(4)
	r.PushLane(0, m.Flit(0))
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	r.PushLane(0, m.Flit(1))
}

func TestFlitQueueUnderflowPanics(t *testing.T) {
	r := ring(1)
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	r.PopLane(0)
}

func TestNewFlitQueueValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity did not panic")
		}
	}()
	ring(0)
}

func TestRouterLayout(t *testing.T) {
	r := New(5, 3, 10, 2)
	if r.ID != 5 {
		t.Fatalf("id = %d, want 5", r.ID)
	}
	if len(r.In) != 7*10 { // (6 network + injection) × V
		t.Fatalf("input lanes = %d, want 70", len(r.In))
	}
	if len(r.Out) != 6*10 {
		t.Fatalf("output VCs = %d, want 60", len(r.Out))
	}
	if r.InjectionPort() != 6 {
		t.Fatalf("injection port = %d", r.InjectionPort())
	}
	if r.Words() != 2 {
		t.Fatalf("lane-set words = %d, want 2 for 70 lanes", r.Words())
	}
	for o := range r.Out {
		if r.Out[o].Credits != 2 {
			t.Fatalf("initial credits = %d, want bufDepth 2", r.Out[o].Credits)
		}
		if r.Out[o].Busy || r.Out[o].Waiting() {
			t.Fatal("output VC born busy or with a parked lane")
		}
	}
	if len(r.RROut) != 6 { // one arbiter per network output port
		t.Fatalf("rr slots = %d", len(r.RROut))
	}
	if size := unsafe.Sizeof(InVC{}); size != 16 {
		t.Fatalf("InVC is %d bytes, want 16 (two 4-byte refs, two 2-byte seq words, 4 of route and ring)", size)
	}
	if size := unsafe.Sizeof(OutVC{}); size != 4 {
		t.Fatalf("OutVC is %d bytes, want 4", size)
	}
	if size := unsafe.Sizeof(Router{}); size != 120 {
		t.Fatalf("Router is %d bytes, want 120", size)
	}
	if size := unsafe.Sizeof(r.RROut[0]); size != 2 {
		t.Fatalf("a round-robin pointer is %d bytes, want 2", size)
	}
	if r.shared.ovf != nil || New(0, 3, 10, 3).shared.ovf == nil {
		t.Fatal("overflow window: want none at depth 2, one at depth 3")
	}
}

// TestGeometryLimits checks that NewSlab refuses what its packed fields
// cannot hold: a VC or a ring index beyond a byte, more ports than one
// ReadyPorts mask.
func TestGeometryLimits(t *testing.T) {
	for name, build := range map[string]func(){
		"vcs":   func() { NewSlab(1, 2, MaxV+1, 1) },
		"depth": func() { NewSlab(1, 2, 1, MaxDepth+1) },
		"ports": func() { NewSlab(1, 32, 1, 1) }, // 64 network ports + ejection
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: unsupported geometry did not panic", name)
				}
			}()
			build()
		}()
	}
	r := New(0, 31, MaxV, MaxDepth) // the widest geometry that fits
	if l := Lane(len(r.In) - 1); r.LaneOf(r.InjectionPort(), MaxV-1) != l {
		t.Fatalf("last lane id = %d, want %d", r.LaneOf(r.InjectionPort(), MaxV-1), l)
	}
}

// TestRequestWordsAndGrant drives the switch allocator by hand on a
// two-word geometry: request words follow SetRoute/ClearRoute, ReadyPorts
// sees a port only while an unparked requester is buffered, and Grant
// serves a port's requesters round-robin by rank — parked ones counted,
// never granted — parking those it finds without a credit until Credit,
// Release, ClearRoute or Resync wakes them.
func TestRequestWordsAndGrant(t *testing.T) {
	r := New(0, 2, 16, 2) // 80 lanes, 4 network ports
	m := poolMsg(8)
	route := func(l Lane, vc int) int { // to output VC (2, vc)
		r.PushLane(l, m.Flit(1))
		r.In[l].OutPort, r.In[l].OutVC = 2, uint8(vc)
		r.SetRoute(l)
		o := r.OutIndex(2, vc)
		r.Out[o].Busy = true
		return o
	}
	// Three requesters of port 2, ranks 0..2, across both words; one lane
	// to eject.
	o3, o40, o70 := route(3, 0), route(40, 1), route(70, 2)
	r.PushLane(65, m.Flit(1))
	r.In[65].OutPort = uint8(r.EjectPort())
	r.SetRoute(65)
	if r.RequestWord(0, 2) != 1<<3|1<<40 || r.RequestWord(1, 2) != 1<<(70-64) || r.EjectWord(1) != 1<<(65-64) {
		t.Fatalf("request words of port 2 = %#x %#x, eject word 1 = %#x", r.RequestWord(0, 2), r.RequestWord(1, 2), r.EjectWord(1))
	}
	if got := r.ReadyPorts(); got != 1<<2|1<<4 {
		t.Fatalf("ready ports = %#b, want port 2 and ejection", got)
	}
	// RROut = 4 reduces to rank 1: lane 40 wins and leaves the pointer at 2.
	r.RROut[2] = 4
	if l, ok := r.Grant(2); !ok || l != 40 || r.RROut[2] != 2 {
		t.Fatalf("grant = lane %d (%v), RROut %d; want lane 40, RROut 2", l, ok, r.RROut[2])
	}
	// From rank 2 with lane 70 out of credit: 70 is parked, the walk wraps
	// to rank 0.
	r.Out[o70].Credits = 0
	if l, ok := r.Grant(2); !ok || l != 3 || r.RROut[2] != 1 || !r.Starved(70) {
		t.Fatalf("grant = lane %d (%v), RROut %d, lane 70 parked %v; want lane 3, RROut 1, parked", l, ok, r.RROut[2], r.Starved(70))
	}
	if o := r.Out[o70]; !o.Waiting() || o.Holder != 70 {
		t.Fatalf("output VC of the parked lane = %+v", o)
	}
	// Nobody has a credit: everyone parks, no grant, the pointer stays, and
	// the port drops out of ReadyPorts.
	r.Out[o3].Credits, r.Out[o40].Credits = 0, 0
	if l, ok := r.Grant(2); ok || r.RROut[2] != 1 || !r.Starved(3) || !r.Starved(40) {
		t.Fatalf("grant = lane %d (%v), RROut %d with no credits anywhere", l, ok, r.RROut[2])
	}
	if got := r.ReadyPorts(); got != 1<<4 {
		t.Fatalf("ready ports = %#b with every requester of port 2 parked", got)
	}
	// A credit wakes its holder only; the parked lanes keep their ranks, so
	// lane 40 (rank 1) is the one to win and the pointer moves to 2.
	r.Credit(o40)
	if r.Starved(40) || r.Out[o40].Waiting() || !r.Starved(3) || !r.Starved(70) {
		t.Fatal("Credit woke the wrong lanes")
	}
	if l, ok := r.Grant(2); !ok || l != 40 || r.RROut[2] != 2 {
		t.Fatalf("grant = lane %d (%v), RROut %d after the credit", l, ok, r.RROut[2])
	}
	// Release, ClearRoute and Resync each drop the mark with the VC's Holder.
	r.Release(o3)
	if r.Starved(3) || r.Out[o3].Waiting() || r.Out[o3].Busy {
		t.Fatal("Release left the lane parked")
	}
	r.ClearRoute(70)
	if r.Starved(70) || r.Out[o70].Waiting() || r.RequestWord(1, 2) != 0 {
		t.Fatal("ClearRoute left the lane parked or requesting")
	}
	r.Starve(40, o40)
	r.Resync()
	if r.Starved(40) || r.Out[o40].Waiting() {
		t.Fatal("Resync left the lane parked")
	}
}

// TestIdleLane checks the free-injection-VC scan: the lowest lane of the
// range that neither buffers a flit nor holds a route, across a word
// boundary.
func TestIdleLane(t *testing.T) {
	r := New(0, 2, 16, 2) // injection lanes 64..79
	m := poolMsg(8)
	if l := r.IdleLane(60, 70); l != 60 {
		t.Fatalf("idle lane of an empty router = %d, want 60", l)
	}
	for l := Lane(60); l < 66; l++ {
		r.PushLane(l, m.Flit(1))
	}
	r.In[66].OutPort = uint8(r.EjectPort())
	r.SetRoute(66) // routed, drained: still taken
	if l := r.IdleLane(60, 70); l != 67 {
		t.Fatalf("idle lane = %d, want 67", l)
	}
	if l := r.IdleLane(60, 67); l != -1 {
		t.Fatalf("idle lane below 67 = %d, want none", l)
	}
}

// TestSlabRoutersAreDisjoint checks the arena carving: every router of a
// slab gets its own id and its own windows, so filling one router's lanes
// to capacity leaves its neighbours untouched.
func TestSlabRoutersAreDisjoint(t *testing.T) {
	rs := NewSlab(3, 2, 4, 2)
	m := poolMsg(4)
	mid := &rs[1]
	for l := range mid.In {
		mid.PushLane(Lane(l), m.Flit(0))
		mid.PushLane(Lane(l), m.Flit(1))
		mid.SetRoute(Lane(l))
		mid.Block(Lane(l), ^uint16(0))
	}
	for o := range mid.Out {
		mid.Out[o].Busy = true
	}
	for _, id := range []int{0, 2} {
		r := &rs[id]
		if int(r.ID) != id {
			t.Fatalf("router %d has id %d", id, r.ID)
		}
		if r.Buffered() || r.LaneCount() != 0 {
			t.Fatalf("router %d: neighbour's pushes leaked in (flits %d, lanes %d)", id, flits(r), r.LaneCount())
		}
		for l := range r.In {
			if r.HasRoute(Lane(l)) || r.Blocked(Lane(l)) || r.Len(Lane(l)) != 0 || r.In[l] != (InVC{}) {
				t.Fatalf("router %d lane %d: neighbour's state leaked in", id, l)
			}
		}
		for o := range r.Out {
			if r.Out[o].Busy {
				t.Fatalf("router %d out %d: neighbour's state leaked in", id, o)
			}
		}
	}
}

// TestActivityCounter checks the activity signal: a router is Buffered
// exactly while one of its lanes holds a flit.
func TestActivityCounter(t *testing.T) {
	r := New(0, 2, 4, 2)
	m := poolMsg(4)
	if r.Buffered() {
		t.Fatal("new router not idle")
	}
	r.Push(0, 1, m.Flit(0))
	r.Push(2, 3, m.Flit(1))
	if !r.Buffered() || flits(r) != 2 {
		t.Fatalf("flits = %d, want 2", flits(r))
	}
	r.Pop(0, 1)
	if !r.Buffered() || flits(r) != 1 {
		t.Fatalf("flits = %d, want 1", flits(r))
	}
	r.Pop(2, 3)
	if r.Buffered() {
		t.Fatal("drained router still buffered")
	}
}

// lanesOf collects the active lanes in iteration order.
func lanesOf(r *Router) []Lane {
	var out []Lane
	for _, l := range r.Lanes() {
		out = append(out, l)
	}
	return out
}

func TestLaneWorklistOrderAndRetire(t *testing.T) {
	r := New(0, 2, 4, 2) // degree 4 + injection port, V=4
	m := poolMsg(8)

	// Mark lanes out of order, with a duplicate push into one of them.
	r.Push(2, 3, m.Flit(0))
	r.Push(0, 1, m.Flit(1))
	r.Push(r.InjectionPort(), 0, m.Flit(2))
	r.Push(2, 3, m.Flit(3)) // same lane again: must not double-mark
	if got := r.LaneCount(); got != 3 {
		t.Fatalf("lane count = %d, want 3", got)
	}
	want := []Lane{Lane(0*4 + 1), Lane(2*4 + 3), Lane(r.InjectionPort() * 4)}
	if got := lanesOf(r); !slices.Equal(got, want) {
		t.Fatalf("active lanes = %v, want %v (port-major ascending)", got, want)
	}
	for _, l := range want {
		port, vc := r.LanePortVC(l)
		if r.LaneOf(port, vc) != l {
			t.Fatalf("LanePortVC(%d) = (%d,%d): does not round-trip", l, port, vc)
		}
	}

	// Drain lane (0,1): it must leave the set at once, the rest stay.
	r.Pop(0, 1)
	if n := r.RetireLanes(); n != 2 {
		t.Fatalf("retire count = %d, want 2", n)
	}
	if lanes := lanesOf(r); len(lanes) != 2 || lanes[0] != Lane(2*4+3) {
		t.Fatalf("lanes after drain = %v", lanes)
	}
	// The doubly pushed lane stays active until its last flit leaves.
	r.Pop(2, 3)
	if lanes := lanesOf(r); len(lanes) != 2 {
		t.Fatalf("half-drained lane left the set: %v", lanes)
	}

	// A drained lane re-arms on the next push.
	r.Push(0, 1, m.Flit(4))
	if lanes := lanesOf(r); len(lanes) != 3 || lanes[0] != Lane(0*4+1) {
		t.Fatalf("lanes after re-push = %v", lanes)
	}
}

// TestLaneSetSpansWords drives a router with 80 lanes (5 ports × V=16), so
// its lane sets take two words: marks, ascending iteration, the phase
// words and drain order must all work across the word boundary.
func TestLaneSetSpansWords(t *testing.T) {
	r := New(0, 2, 16, 2)
	if len(r.In) != 80 || r.Words() != 2 {
		t.Fatalf("lanes/words = %d/%d, want 80/2", len(r.In), r.Words())
	}
	m := poolMsg(8)
	marks := []Lane{79, 0, 64, 63, 17, 65}
	for _, l := range marks {
		r.PushLane(l, m.Flit(0))
	}
	want := []Lane{0, 17, 63, 64, 65, 79}
	if got := lanesOf(r); !slices.Equal(got, want) {
		t.Fatalf("active lanes = %v, want %v", got, want)
	}
	if port, vc := r.LanePortVC(79); port != 4 || vc != 15 {
		t.Fatalf("LanePortVC(79) = (%d,%d), want (4,15)", port, vc)
	}

	// Route two lanes (one per word), block two others — lane 63 on output
	// VCs (0, 3) and (2, 7), lane 79 on (2, 7) alone: the route phase must
	// see exactly the remaining two, the switch phase the routed two.
	r.SetRoute(17)
	r.SetRoute(64)
	r.Block(63, WaitBit(0, 3)|WaitBit(2, 7))
	r.Block(79, WaitBit(2, 7))
	if r.RouteWord(0) != 1<<0 || r.RouteWord(1) != 1<<(65-64) {
		t.Fatalf("route words = %#x %#x", r.RouteWord(0), r.RouteWord(1))
	}
	if r.SwitchWord(0) != 1<<17 || r.SwitchWord(1) != 1<<(64-64) {
		t.Fatalf("switch words = %#x %#x", r.SwitchWord(0), r.SwitchWord(1))
	}
	if w := r.Waits(79); w != WaitBit(2, 7) {
		t.Fatalf("lane 79 registration = %#x, want %#x", w, WaitBit(2, 7))
	}

	// A release wakes the lanes holding both its port bit and its VC bit, in
	// either word, and nobody else: (0, 5) has no waiter — lane 63 holds its
	// port bit, not its VC bit — and (0, 3) only lane 63.
	out := func(port, vc int) int { return r.OutIndex(topology.Port(port), vc) }
	for _, o := range []int{out(0, 5), out(0, 3), out(2, 7)} {
		r.Out[o].Busy = true
	}
	r.Release(out(0, 5))
	if r.Out[out(0, 5)].Busy || !r.Blocked(63) || !r.Blocked(79) {
		t.Fatal("releasing a VC nobody waits on left it busy or woke a lane")
	}
	r.Release(out(0, 3))
	if r.Blocked(63) || !r.Blocked(79) {
		t.Fatalf("release of (0, 3): lane 63 blocked %v, lane 79 blocked %v; want woken, parked", r.Blocked(63), r.Blocked(79))
	}
	if r.RouteWord(0) != 1<<0|1<<63 || r.RouteWord(1) != 1<<(65-64) {
		t.Fatalf("route words after the first release = %#x %#x", r.RouteWord(0), r.RouteWord(1))
	}
	// Both registered on one VC: its release wakes both. A lane that parks
	// again registers afresh, so the old candidates no longer wake it.
	r.Block(63, WaitBit(0, 3)|WaitBit(2, 7))
	r.Release(out(2, 7))
	if r.Blocked(63) || r.Blocked(79) {
		t.Fatal("release of (2, 7) left a lane registered for it blocked")
	}
	r.Block(79, WaitBit(0, 7))
	r.Release(out(2, 7))
	if !r.Blocked(79) {
		t.Fatal("a lane re-parked on (0, 7) was woken through its previous registration")
	}
	// The registration covers more than its candidates: every pairing of
	// their ports and VCs — lane 63 on (0, 3) and (2, 7) wakes for (2, 3) —
	// and VCs from 7 up share a bit. Such a wake-up is one the head cannot
	// use, which only costs it one more look.
	r.Block(63, WaitBit(0, 3)|WaitBit(2, 7))
	r.Release(out(2, 3))
	if r.Blocked(63) {
		t.Fatal("release of (2, 3) did not wake the lane registered on ports 0, 2 and VCs 3, 7")
	}
	r.Release(out(0, 9))
	if r.Blocked(79) {
		t.Fatal("release of (0, 9) did not wake the lane registered under VC 7's saturated bit")
	}
	if r.RouteWord(0) != 1<<0|1<<63 || r.RouteWord(1) != 1<<(65-64)|1<<(79-64) {
		t.Fatalf("route words after the releases = %#x %#x", r.RouteWord(0), r.RouteWord(1))
	}

	// Drain in an arbitrary order; the survivors stay ascending throughout.
	for i, l := range []Lane{64, 0, 79, 63} {
		r.PopLane(l)
		if got := r.RetireLanes(); got != len(want)-1-i {
			t.Fatalf("after draining lane %d: %d lanes, want %d", l, got, len(want)-1-i)
		}
		if got := lanesOf(r); !slices.IsSorted(got) || slices.Contains(got, l) {
			t.Fatalf("after draining lane %d: lanes = %v", l, got)
		}
	}
	if got := lanesOf(r); !slices.Equal(got, []Lane{17, 65}) {
		t.Fatalf("remaining lanes = %v, want [17 65]", got)
	}
}

// TestReparkNeedsEveryCoveredVCBusy: a woken head keeps its registration,
// and Repark parks it again exactly while every output VC the registration
// covers — each registered port with each registered VC, VCs from 7 up
// under one bit — is busy. ClearRoute, Unblock and a FilterLane that drops
// flits take the registration away; a routed lane's route survives Unblock.
func TestReparkNeedsEveryCoveredVCBusy(t *testing.T) {
	r := New(0, 2, 16, 2) // ports 0..3, V = 16
	out := func(port, vc int) int { return r.OutIndex(topology.Port(port), vc) }
	var covered []int
	for _, p := range []int{0, 2} {
		for _, vc := range []int{3, 7, 8, 9, 10, 11, 12, 13, 14, 15} {
			covered = append(covered, out(p, vc))
		}
	}
	for _, o := range covered {
		r.Out[o].Busy = true
	}
	m := poolMsg(4)
	r.PushLane(5, m.Flit(0))
	if r.Repark(5) {
		t.Fatal("a head that never registered was parked")
	}
	r.Block(5, WaitBit(0, 3)|WaitBit(2, 9))
	for _, o := range covered {
		r.Release(o) // wakes lane 5: o is under both of its bits
		if r.Blocked(5) || r.Repark(5) {
			t.Fatalf("with output VC %d free: blocked %v after its release, or parked again", o, r.Blocked(5))
		}
		r.Out[o].Busy = true
		if !r.Repark(5) || !r.Blocked(5) {
			t.Fatalf("every covered VC busy again after %d's release, yet the head was not parked", o)
		}
	}
	r.Out[out(1, 3)].Busy, r.Out[out(0, 4)].Busy = false, false
	if !r.Repark(5) {
		t.Fatal("a free VC outside the registration's ports or VCs stopped the re-park")
	}
	r.Unblock()
	if r.Repark(5) || r.Waits(5) != 0 {
		t.Fatal("Unblock left the registration standing")
	}
	r.Block(5, WaitBit(0, 3))
	r.PushLane(5, m.Flit(1))
	if r.FilterLane(5, func(f message.Flit) bool { return f.Seq() == 0 }) != 1 || r.Waits(5) != 0 {
		t.Fatal("FilterLane dropped the front, yet the registration stands")
	}
	r.In[6].OutPort, r.In[6].OutVC = 2, 5
	r.SetRoute(6)
	r.Unblock()
	if r.In[6].OutPort != 2 || r.In[6].OutVC != 5 {
		t.Fatal("Unblock cleared a routed lane's route")
	}
	r.ClearRoute(6)
	if r.In[6].OutPort != 0 || r.In[6].OutVC != 0 {
		t.Fatal("ClearRoute left the route bytes set")
	}
}

// TestFilterLane checks the purge primitive: survivors keep FIFO order,
// the counters follow, an emptied lane leaves the active set, and the
// blocked mark dies with the flits it described.
func TestFilterLane(t *testing.T) {
	r := New(0, 2, 4, 4)
	pool := message.NewPool(2, false)
	a := pool.New(1, 0, 1, 4, message.Deterministic, 0)
	b := pool.New(2, 0, 1, 4, message.Deterministic, 0)
	refA, _ := a.Ref()
	// Start the ring off-zero so the filter has to wrap.
	r.PushLane(5, b.Flit(0))
	r.PushLane(5, b.Flit(1))
	r.PopLane(5)
	r.PopLane(5)
	for _, f := range []message.Flit{a.Flit(2), b.Flit(0), a.Flit(3), b.Flit(1)} {
		r.PushLane(5, f)
	}
	r.Block(5, WaitBit(0, 0))
	dropA := func(f message.Flit) bool { return f.Ref() == refA }
	if n := r.FilterLane(5, dropA); n != 2 {
		t.Fatalf("removed %d flits, want 2", n)
	}
	if flits(r) != 2 || r.Len(5) != 2 || r.Blocked(5) {
		t.Fatalf("after filter: flits %d, len %d, blocked %v", flits(r), r.Len(5), r.Blocked(5))
	}
	var seqs []int
	r.Each(5, func(f message.Flit) { seqs = append(seqs, f.Seq()) })
	if !slices.Equal(seqs, []int{0, 1}) {
		t.Fatalf("survivors = %v, want [0 1]", seqs)
	}
	if n := r.FilterLane(5, func(message.Flit) bool { return true }); n != 2 {
		t.Fatalf("removed %d flits, want 2", n)
	}
	if r.Buffered() || r.LaneCount() != 0 {
		t.Fatalf("emptied lane still counted: flits %d, lanes %d", flits(r), r.LaneCount())
	}
	// A filter that removes nothing must leave a blocked mark alone.
	r.PushLane(5, b.Flit(0))
	r.Block(5, WaitBit(0, 0))
	if n := r.FilterLane(5, func(message.Flit) bool { return false }); n != 0 || !r.Blocked(5) {
		t.Fatalf("no-op filter removed %d flits, blocked %v", n, r.Blocked(5))
	}
}

func TestLaneRetireCountsPendingMarks(t *testing.T) {
	// Lanes marked late in a cycle (as phase B does) must count as
	// activity in the retire path at once, or the engine would retire a
	// router holding fresh flits.
	r := New(0, 2, 4, 2)
	m := poolMsg(8)
	r.Push(1, 2, m.Flit(0))
	if n := r.RetireLanes(); n != 1 {
		t.Fatalf("retire count right after a push = %d, want 1", n)
	}
}

func TestLaneSetTrackedWithoutEnable(t *testing.T) {
	// The active set is maintained unconditionally; EnableLaneTracking is
	// a no-op kept for older callers.
	r := New(0, 2, 4, 2)
	m := poolMsg(8)
	r.Push(0, 0, m.Flit(0))
	if got := r.LaneCount(); got != 1 {
		t.Fatalf("router recorded %d lanes, want 1", got)
	}
	r.EnableLaneTracking()
	r.MergeLanes()
	if got := r.LaneCount(); got != 1 {
		t.Fatalf("after the no-op calls: %d lanes, want 1", got)
	}
}

func TestFlitQueuePropertyConservation(t *testing.T) {
	// Random interleavings of pushes and pops preserve FIFO order and
	// counts.
	if err := quick.Check(func(ops []bool, capRaw uint8) bool {
		capacity := 1 + int(capRaw)%8
		r := ring(capacity)
		m := poolMsg(1024)
		pushed, popped := 0, 0
		for _, isPush := range ops {
			if isPush {
				if r.Space(0) > 0 {
					r.PushLane(0, m.Flit(pushed%1024))
					pushed++
				}
			} else if r.Len(0) > 0 {
				f := r.PopLane(0)
				if f.Seq() != popped%1024 {
					return false
				}
				popped++
			}
		}
		return r.Len(0) == pushed-popped && flits(r) == r.Len(0) && r.Buffered() == (r.Len(0) > 0)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLaneMatchesSliceFIFO drives random PushLane/PopLane/FilterLane/Front
// sequences on every lane of a small router at depths 1 to 5 — inline
// slots only, and rings continuing into the overflow window — against one
// slice FIFO per lane. The flits are heads, tails and body flits of worms
// up to message.MaxLen long, so a seq as wide as MaxLen-1 and its tail bit
// pass through inline slots (stored apart from their Ref) and overflow
// slots alike.
func TestLaneMatchesSliceFIFO(t *testing.T) {
	pool := message.NewPool(2, false)
	msgs := make([]*message.Message, 4)
	for i, length := range []int{1, 64, message.MaxLen, message.MaxLen} {
		msgs[i] = pool.New(uint64(i), 0, 1, length, message.Deterministic, 0)
	}
	if err := quick.Check(func(ops []uint16, depthRaw uint8) bool {
		depth := 1 + int(depthRaw)%5
		r := New(0, 1, 2, depth) // 3 ports × 2 VCs: 6 lanes
		ref := make([][]message.Flit, len(r.In))
		for i, op := range ops {
			l := Lane(int(op>>2) % len(r.In))
			m := msgs[int(op>>5)%len(msgs)]
			switch op & 3 {
			case 0, 1:
				if len(ref[l]) == depth {
					continue
				}
				seq := [...]int{0, m.Len - 1, i % m.Len, m.Len / 2}[op>>7&3]
				f := m.Flit(seq)
				r.PushLane(l, f)
				ref[l] = append(ref[l], f)
			case 2:
				if len(ref[l]) == 0 {
					continue
				}
				f := r.PopLane(l)
				if f != ref[l][0] || f.Seq() != ref[l][0].Seq() || f.IsTail() != ref[l][0].IsTail() {
					return false
				}
				ref[l] = ref[l][1:]
			case 3:
				drop := m.Flit(0).Ref()
				kept := ref[l][:0:0]
				for _, f := range ref[l] {
					if f.Ref() != drop {
						kept = append(kept, f)
					}
				}
				if r.FilterLane(l, func(f message.Flit) bool { return f.Ref() == drop }) != len(ref[l])-len(kept) {
					return false
				}
				ref[l] = kept
			}
			for l := range r.In {
				front, ok := r.Front(Lane(l))
				if r.Len(Lane(l)) != len(ref[l]) || r.Space(Lane(l)) != depth-len(ref[l]) || ok != (len(ref[l]) > 0) || ok && front != ref[l][0] {
					return false
				}
				var got []message.Flit
				r.Each(Lane(l), func(f message.Flit) { got = append(got, f) })
				if !slices.Equal(got, ref[l]) {
					return false
				}
			}
		}
		return r.Buffered() == (flits(r) > 0)
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// The longest worm's last three flits, through both inline slots and
	// the overflow slot of a depth-3 ring.
	r := ring(3)
	long := msgs[2]
	for seq := message.MaxLen - 3; seq < message.MaxLen; seq++ {
		r.PushLane(0, long.Flit(seq))
	}
	for seq := message.MaxLen - 3; seq < message.MaxLen; seq++ {
		f := r.PopLane(0)
		if f.Seq() != seq || f.IsHead() || f.IsTail() != (seq == message.MaxLen-1) || f.Ref() != long.Flit(0).Ref() {
			t.Fatalf("popped seq %d head %v tail %v, want seq %d", f.Seq(), f.IsHead(), f.IsTail(), seq)
		}
	}
}
