package trace

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func TestRecorderGroupsByMessage(t *testing.T) {
	r := NewRecorder()
	r.Trace(Event{Cycle: 1, Msg: 1, Kind: Inject, Node: 0})
	r.Trace(Event{Cycle: 2, Msg: 2, Kind: Inject, Node: 5})
	r.Trace(Event{Cycle: 3, Msg: 1, Kind: Hop, Node: 1})
	if r.Messages() != 2 || r.Count() != 3 {
		t.Fatalf("messages/count = %d/%d", r.Messages(), r.Count())
	}
	if len(r.Events(1)) != 2 || len(r.Events(2)) != 1 {
		t.Fatal("grouping wrong")
	}
}

func TestVerifyAcceptsValidHistory(t *testing.T) {
	tor := topology.New(8, 2)
	r := NewRecorder()
	n0 := tor.FromCoords([]int{0, 0})
	n1 := tor.FromCoords([]int{1, 0})
	n2 := tor.FromCoords([]int{2, 0})
	r.Trace(Event{Cycle: 1, Msg: 7, Kind: Inject, Node: n0})
	r.Trace(Event{Cycle: 2, Msg: 7, Kind: Hop, Node: n1})
	r.Trace(Event{Cycle: 3, Msg: 7, Kind: AbsorbStart, Node: n1})
	r.Trace(Event{Cycle: 5, Msg: 7, Kind: FaultStop, Node: n1})
	r.Trace(Event{Cycle: 6, Msg: 7, Kind: Inject, Node: n1})
	r.Trace(Event{Cycle: 7, Msg: 7, Kind: Hop, Node: n2})
	r.Trace(Event{Cycle: 8, Msg: 7, Kind: Deliver, Node: n2})
	if err := r.Verify(tor); err != nil {
		t.Fatalf("valid history rejected: %v", err)
	}
}

func TestVerifyRejectsBadHistories(t *testing.T) {
	tor := topology.New(8, 2)
	n0 := tor.FromCoords([]int{0, 0})
	far := tor.FromCoords([]int{3, 3})

	cases := map[string][]Event{
		"missing inject": {
			{Cycle: 1, Msg: 1, Kind: Hop, Node: n0},
			{Cycle: 2, Msg: 1, Kind: Deliver, Node: n0},
		},
		"no terminal": {
			{Cycle: 1, Msg: 1, Kind: Inject, Node: n0},
			{Cycle: 2, Msg: 1, Kind: Hop, Node: tor.FromCoords([]int{1, 0})},
		},
		"teleport hop": {
			{Cycle: 1, Msg: 1, Kind: Inject, Node: n0},
			{Cycle: 2, Msg: 1, Kind: Hop, Node: far},
			{Cycle: 3, Msg: 1, Kind: Deliver, Node: far},
		},
		"time travel": {
			{Cycle: 5, Msg: 1, Kind: Inject, Node: n0},
			{Cycle: 3, Msg: 1, Kind: Deliver, Node: n0},
		},
		"stop at wrong node": {
			{Cycle: 1, Msg: 1, Kind: Inject, Node: n0},
			{Cycle: 2, Msg: 1, Kind: Deliver, Node: far},
		},
	}
	for name, evs := range cases {
		r := NewRecorder()
		for _, ev := range evs {
			r.Trace(ev)
		}
		if err := r.Verify(tor); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestVerifyReportsLowestID: with two malformed messages, Verify reports
// the lower ID every time, whatever order the messages were traced in.
func TestVerifyReportsLowestID(t *testing.T) {
	tor := topology.New(8, 2)
	n0 := tor.FromCoords([]int{0, 0})
	r := NewRecorder()
	for _, msg := range []uint64{9, 4} {
		r.Trace(Event{Cycle: 1, Msg: msg, Kind: Hop, Node: n0})
		r.Trace(Event{Cycle: 2, Msg: msg, Kind: Deliver, Node: n0})
	}
	for i := 0; i < 20; i++ {
		err := r.Verify(tor)
		if err == nil || !strings.HasPrefix(err.Error(), "msg#4:") {
			t.Fatalf("call %d: Verify = %v, want the msg#4 violation", i, err)
		}
	}
}

func TestRender(t *testing.T) {
	tor := topology.New(4, 2)
	r := NewRecorder()
	r.Trace(Event{Cycle: 1, Msg: 3, Kind: Inject, Node: 0})
	out := r.Render(tor, 3)
	if !strings.Contains(out, "inject") || !strings.Contains(out, "(0,0)") {
		t.Fatalf("render missing fields:\n%s", out)
	}
	if !strings.Contains(r.Render(tor, 99), "no events") {
		t.Fatal("empty render wrong")
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		Inject: "inject", Hop: "hop", AbsorbStart: "absorb",
		ViaStop: "via", FaultStop: "fault-stop", Deliver: "deliver", Drop: "drop",
	} {
		if k.String() != want {
			t.Errorf("%d: %q", int(k), k.String())
		}
	}
}
