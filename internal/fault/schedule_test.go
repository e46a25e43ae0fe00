package fault

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/topology"
)

// TestParseScheduleSpecNormalization pins the single spelling of a schedule
// spec: the canonical registry form resolves, and the former CLI shorthands
// ("trace=<file>", "mtbf=..,mttr=..", which hashed to a different
// sweep.PointID than the canonical spelling of the same experiment) are
// rejected rather than normalized.
func TestParseScheduleSpecNormalization(t *testing.T) {
	for _, tc := range []struct {
		in   string
		name string
		want map[string]string
	}{
		{"trace:file=events.csv", "trace", map[string]string{"file": "events.csv"}},
		{"mtbf:mtbf=20000,mttr=2000", "mtbf", map[string]string{"mtbf": "20000", "mttr": "2000"}},
	} {
		spec, err := CheckScheduleSpec(tc.in)
		if err != nil {
			t.Fatalf("CheckScheduleSpec(%q): %v", tc.in, err)
		}
		if spec.Name != tc.name || spec.String() != tc.in {
			t.Fatalf("CheckScheduleSpec(%q) = %q (name %q), want name %q", tc.in, spec.String(), spec.Name, tc.name)
		}
		for k, v := range tc.want {
			if got, ok := spec.Get(k); !ok || got != v {
				t.Fatalf("CheckScheduleSpec(%q): param %s = %q/%v, want %q", tc.in, k, got, ok, v)
			}
		}
	}
	for _, bad := range []string{"trace=events.csv", "mtbf=20000,mttr=2000", "", "Trace:file=x", "mtbf:"} {
		if _, err := CheckScheduleSpec(bad); err == nil || !strings.HasPrefix(err.Error(), "fault: ") {
			t.Fatalf("CheckScheduleSpec(%q) = %v, want a fault:-prefixed error", bad, err)
		}
	}
}

func TestCheckScheduleSpec(t *testing.T) {
	for _, good := range []string{"trace:file=x.csv", "mtbf:mtbf=100,mttr=10", "mtbf:mtbf=100,mttr=10,elems=mixed"} {
		if _, err := CheckScheduleSpec(good); err != nil {
			t.Fatalf("CheckScheduleSpec(%q): %v", good, err)
		}
	}
	for _, bad := range []string{
		"bogus:x=1",                     // unregistered name
		"trace",                         // missing file
		"mtbf:mtbf=100",                 // missing mttr
		"mtbf:mtbf=0,mttr=10",           // non-positive mtbf
		"mtbf:mtbf=100,mttr=-1",         // non-positive mttr
		"mtbf:mtbf=100,mttr=10,elems=x", // bad victim class
		"mtbf:mtbf=100,mttr=10,bogus=1", // unconsumed key
		"trace:file=x.csv,unexpected=1", // unconsumed key
	} {
		if _, err := CheckScheduleSpec(bad); err == nil {
			t.Fatalf("CheckScheduleSpec(%q) accepted", bad)
		}
	}
	// The static check must not touch the filesystem: a trace spec naming a
	// nonexistent file passes CheckScheduleSpec (IO happens in NewSchedule).
	if _, err := CheckScheduleSpec("trace:file=/definitely/not/there.csv"); err != nil {
		t.Fatalf("CheckScheduleSpec must stay IO-free: %v", err)
	}
	if _, err := NewSchedule("trace:file=/definitely/not/there.csv", ScheduleEnv{T: topology.New(4, 2)}); err == nil {
		t.Fatal("NewSchedule accepted a nonexistent trace file")
	}
	// A bad record is reported as <file>: line N.
	file := filepath.Join(t.TempDir(), "events.csv")
	if err := os.WriteFile(file, []byte("# events\n100,fail,node,5\n200,heal,node,99\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSchedule("trace:file="+file, ScheduleEnv{T: topology.New(4, 2)}); err == nil || !strings.Contains(err.Error(), file+": line 3: node id 99") {
		t.Fatalf("got %v, want an error naming %s: line 3", err, file)
	}
}

func TestParseScheduleTrace(t *testing.T) {
	tor := topology.New(4, 2)
	in := strings.Join([]string{
		"# comments and blanks skipped",
		"",
		"100,fail,node,5",
		"150,fail,link,3,1",
		" 200 , heal , node , 5 ",
		"220,heal,link,3,1\r",
	}, "\n")
	evs, err := ParseScheduleTrace(strings.NewReader(in), tor)
	if err != nil {
		t.Fatal(err)
	}
	want := []Transition{
		{Cycle: 100, Fail: true, Node: 5},
		{Cycle: 150, Fail: true, IsLink: true, Link: topology.ChannelID{Src: 3, Port: 1}},
		{Cycle: 200, Node: 5},
		{Cycle: 220, IsLink: true, Link: topology.ChannelID{Src: 3, Port: 1}},
	}
	if !reflect.DeepEqual(evs, want) {
		t.Fatalf("parsed %+v, want %+v", evs, want)
	}
	for _, bad := range []string{
		"100,fail,node",                    // torn record
		"100,fail,node,99",                 // node out of range
		"100,fail,link,3,9",                // port out of range
		"100,fail,link,3",                  // torn link record
		"100,explode,node,5",               // bad op
		"-5,fail,node,1",                   // negative cycle
		"200,fail,node,1\n100,fail,node,2", // out-of-order cycles
	} {
		if _, err := ParseScheduleTrace(strings.NewReader(bad), tor); err == nil {
			t.Fatalf("ParseScheduleTrace accepted %q", bad)
		}
	}
	// The JSONL dialect is gone: such a line is a bad record, named by line.
	jsonl := "100,fail,node,5\n\n" + `{"cycle":200,"op":"heal","elem":"node","id":5}`
	if _, err := ParseScheduleTrace(strings.NewReader(jsonl), tor); err == nil || !strings.HasPrefix(err.Error(), "line 3: ") {
		t.Fatalf("JSONL line: got %v, want an error naming line 3", err)
	}
	// Mesh edge channels do not exist and must be rejected, not panic.
	msh := topology.NewMesh(4, 2)
	if _, err := ParseScheduleTrace(strings.NewReader("5,fail,link,3,0"), msh); err == nil {
		t.Fatal("ParseScheduleTrace accepted a nonexistent mesh edge link")
	}
}

// FuzzParseScheduleTrace hardens the trace parser against untrusted
// input: any byte soup must come back as an error or a well-formed,
// cycle-ordered transition list — never a panic.
func FuzzParseScheduleTrace(f *testing.F) {
	f.Add("100,fail,node,5\n200,heal,node,5")
	f.Add("1,fail,link,3,1")
	f.Add(`{"cycle":9,"op":"fail","elem":"link","src":3,"port":1}`)
	f.Add("# comment\n\n7,heal,node,0")
	f.Add("100,fail,node")
	f.Add("{")
	f.Add("☃,fail,node,1")
	f.Add("9223372036854775807,fail,node,1")
	tor := topology.New(4, 2)
	f.Fuzz(func(t *testing.T, in string) {
		evs, err := ParseScheduleTrace(strings.NewReader(in), tor)
		if err != nil {
			return
		}
		for _, line := range strings.Split(in, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "{") {
				t.Fatalf("accepted a JSONL line %q", line)
			}
		}
		last := int64(-1)
		for _, tr := range evs {
			if tr.Cycle < last {
				t.Fatalf("accepted out-of-order cycles: %+v", evs)
			}
			last = tr.Cycle
			if !tr.IsLink && !tor.Valid(tr.Node) {
				t.Fatalf("accepted invalid node: %+v", tr)
			}
			if tr.IsLink && !tor.HasLink(tr.Link.Src, tr.Link.Port.Dim(), tr.Link.Port.Dir()) {
				t.Fatalf("accepted invalid link: %+v", tr)
			}
		}
	})
}

// canonChan maps a directed channel onto its physical link's canonical
// representative, so the net-effect model below tracks links the way
// setLink mutates them (both directions at once).
func canonChan(t topology.Network, ch topology.ChannelID) topology.ChannelID {
	rev := topology.ChannelID{Src: ch.Dst(t), Port: ch.Port.Opposite()}
	if rev.Src < ch.Src || (rev.Src == ch.Src && rev.Port < ch.Port) {
		return rev
	}
	return ch
}

// TestViewNetEffectProperty is Set.apply's correctness property (the name
// predates apply's move off the View wrapper): after any interleaving of
// fail/heal transitions (including redundant ones apply rejects), the live
// set must equal a fresh Set built from the net effect alone. A drift here
// — a heal that forgets a direction, a fail that leaks state — would
// silently corrupt every dynamic run that re-fails a healed element.
func TestViewNetEffectProperty(t *testing.T) {
	tor := topology.New(4, 2)
	chans := topology.ChannelsOf(tor)
	r := rng.New(77)
	for trial := 0; trial < 50; trial++ {
		live := NewSet(tor)
		nodes := map[topology.NodeID]bool{}
		links := map[topology.ChannelID]bool{}
		for step := 0; step < 120; step++ {
			fail := r.Bool()
			if r.Bool() {
				n := topology.NodeID(r.Intn(tor.Nodes()))
				if live.apply(Transition{Fail: fail, Node: n}) != (nodes[n] != fail) {
					t.Fatalf("trial %d step %d: node %d fail=%v: change report disagrees with model", trial, step, n, fail)
				}
				nodes[n] = fail
			} else {
				ch := chans[r.Intn(len(chans))]
				key := canonChan(tor, ch)
				if live.apply(Transition{Fail: fail, IsLink: true, Link: ch}) != (links[key] != fail) {
					t.Fatalf("trial %d step %d: link %v fail=%v: change report disagrees with model", trial, step, ch, fail)
				}
				links[key] = fail
			}
		}
		fresh := NewSet(tor)
		for n, down := range nodes {
			if down {
				fresh.MarkNode(n)
			}
		}
		for ch, down := range links {
			if down {
				fresh.MarkLink(ch.Src, ch.Port)
			}
		}
		if !Equal(live, fresh) {
			t.Fatalf("trial %d: live set diverged from net-effect rebuild", trial)
		}
	}
}

// advanceChecked advances sched to now on live and holds the Schedule
// contract: every returned transition is due, changes rebuilt — a set
// kept in step by applying the returned transitions alone — and leaves
// live equal to it, counts of failed nodes and marked channels included.
// So Advance applied exactly what it returned, and a rejected probe left
// nothing behind. It returns the batch.
func advanceChecked(t *testing.T, sched Schedule, now int64, live, rebuilt *Set) []Transition {
	t.Helper()
	trs := sched.Advance(now, live)
	for _, tr := range trs {
		if tr.Cycle > now {
			t.Fatalf("transition %v emitted before its cycle (now %d)", tr, now)
		}
		if !rebuilt.apply(tr) {
			t.Fatalf("cycle %d: returned %v changes nothing", now, tr)
		}
	}
	if !Equal(live, rebuilt) || live.links != rebuilt.links || live.nodes != rebuilt.nodes {
		t.Fatalf("cycle %d: live set differs from the returned transitions' rebuild", now)
	}
	return trs
}

// copySet returns a set over s's network with s's failed nodes, for
// advanceChecked's rebuild.
func copySet(s *Set) *Set {
	c := NewSet(s.Net())
	c.MarkNodes(s.FaultyNodes())
	return c
}

// TestMTBFScheduleDeterministic pins the generative schedule's contract:
// identical seeds yield identical transition sequences, Advance applies
// exactly the transitions it returns, and no batch — failures and heals alike —
// ever leaves the healthy sub-network disconnected.
func TestMTBFScheduleDeterministic(t *testing.T) {
	tor := topology.New(8, 2)
	run := func(seed uint64) []Transition {
		base := NewSet(tor)
		sched, err := NewSchedule("mtbf:mtbf=300,mttr=80,elems=mixed", ScheduleEnv{
			T: tor, R: rng.New(seed).Split(rng.ScheduleLabel()),
		})
		if err != nil {
			t.Fatal(err)
		}
		var all []Transition
		rebuilt := NewSet(tor)
		for now := int64(0); now < 20000; now++ {
			trs := advanceChecked(t, sched, now, base, rebuilt)
			if len(trs) > 0 && base.Disconnects() {
				t.Fatalf("cycle %d: batch %v disconnected the network", now, trs)
			}
			all = append(all, trs...)
		}
		return all
	}
	a, b := run(9), run(9)
	if len(a) == 0 {
		t.Fatal("mtbf schedule emitted no transitions in 20k cycles at mtbf=300")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different transition sequences")
	}
	fails, heals := 0, 0
	for _, tr := range a {
		if tr.Fail {
			fails++
		} else {
			heals++
		}
	}
	if fails == 0 || heals == 0 {
		t.Fatalf("expected both failures and repairs, got %d fails / %d heals", fails, heals)
	}
}

// TestMTBFBatchesKeepNetworkConnected holds paper assumption (h) under
// churn: on a random static placement, every non-empty batch leaves the
// healthy sub-network connected. Long repairs against frequent failures
// make heals that would strand a node common — most on the ring, where the
// failed nodes form one arc and only its ends can heal — so each row
// refuses heals as well as failures.
func TestMTBFBatchesKeepNetworkConnected(t *testing.T) {
	for _, tc := range []struct {
		topo, sched string
		nf          int
		cycles      int64
	}{
		{"torus:k=8,n=2", "mtbf:mtbf=100,mttr=2000,elems=mixed", 3, 80_000},
		{"torus:k=8,n=2", "mtbf:mtbf=100,mttr=2000,elems=nodes", 3, 80_000},
		{"mesh:k=8,n=2", "mtbf:mtbf=100,mttr=2000,elems=mixed", 3, 80_000},
		{"torus:k=16,n=1", "mtbf:mtbf=20,mttr=300,elems=mixed", 1, 20_000},
	} {
		net, err := topology.NewNetwork(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		for seed := uint64(1); seed <= 5; seed++ {
			r := rng.New(seed)
			cur, err := Random(net, tc.nf, r)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := NewSchedule(tc.sched, ScheduleEnv{T: net, R: r.Split(rng.ScheduleLabel())})
			if err != nil {
				t.Fatal(err)
			}
			batches, cut, rebuilt := 0, 0, copySet(cur)
			for now := int64(0); now < tc.cycles; now++ {
				if len(advanceChecked(t, sched, now, cur, rebuilt)) == 0 {
					continue
				}
				batches++
				if cur.Disconnects() {
					cut++
				}
			}
			if cut != 0 || batches == 0 {
				t.Errorf("%s nf %d %s seed %d: %d of %d batches disconnected the healthy network",
					tc.topo, tc.nf, tc.sched, seed, cut, batches)
			}
		}
	}
}

// TestMTBFProbesLeaveSetIntact: the mtbf schedule decides each candidate
// by applying it to the live set and undoing it when the healthy network
// is then cut. On networks one failure away from a cut — a ring with a
// failed node, and a mesh walled off but for one gap — most candidates
// are rejected, and advanceChecked holds the live set to one rebuilt from
// the returned transitions alone after every Advance.
func TestMTBFProbesLeaveSetIntact(t *testing.T) {
	for _, tc := range []struct {
		spec  string
		nodes [][]int
	}{
		{"torus:k=16,n=1", [][]int{{0}}},
		{"mesh:k=4,n=2", [][]int{{2, 0}, {2, 1}, {2, 3}}},
	} {
		net, err := topology.NewNetwork(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		live := NewSet(net)
		for _, c := range tc.nodes {
			live.MarkNode(net.FromCoords(c))
		}
		rebuilt := copySet(live)
		sched, err := NewSchedule("mtbf:mtbf=20,mttr=300,elems=mixed", ScheduleEnv{
			T: net, R: rng.New(3).Split(rng.ScheduleLabel()),
		})
		if err != nil {
			t.Fatal(err)
		}
		fails := 0
		for now := int64(0); now < 20000; now++ {
			for _, tr := range advanceChecked(t, sched, now, live, rebuilt) {
				if tr.Fail {
					fails++
				}
			}
		}
		if fails == 0 {
			t.Fatalf("%s: no failure accepted in 20 000 cycles at mtbf=20", tc.spec)
		}
	}
}

// TestTraceScheduleAppliesWhatItReturns: a trace applies its due events
// unchecked and returns only those that changed the set, leaving the
// caller's event list as it was, so the list can drive another run.
func TestTraceScheduleAppliesWhatItReturns(t *testing.T) {
	tor := topology.New(4, 2)
	link := topology.ChannelID{Src: 1, Port: 0}
	evs := []Transition{
		{Cycle: 5, Fail: true, Node: 3},
		{Cycle: 5, Fail: true, Node: 3},                   // redundant
		{Cycle: 5, Fail: false, IsLink: true, Link: link}, // heals a healthy link
		{Cycle: 9, Fail: true, IsLink: true, Link: link},
	}
	want := slices.Clone(evs)
	for run := 0; run < 2; run++ {
		cur := NewSet(tor)
		sched := NewTraceSchedule(evs)
		if trs := sched.Advance(4, cur); len(trs) != 0 {
			t.Fatalf("run %d: cycle 4 returned %v", run, trs)
		}
		if trs := sched.Advance(7, cur); !slices.Equal(trs, evs[:1]) || !cur.NodeFaulty(3) {
			t.Fatalf("run %d: cycle 7 returned %v", run, trs)
		}
		if trs := sched.Advance(9, cur); !slices.Equal(trs, evs[3:]) || !cur.LinkMarked(link) {
			t.Fatalf("run %d: cycle 9 returned %v", run, trs)
		}
		if !slices.Equal(evs, want) {
			t.Fatalf("run %d: Advance changed the caller's events: %v", run, evs)
		}
	}
}
