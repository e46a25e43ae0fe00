package message

import (
	"testing"

	"repro/internal/topology"
)

func TestFlitTypes(t *testing.T) {
	pool := NewPool(2, false)
	m := pool.New(1, 0, 5, 4, Deterministic, 0)
	if f := m.Flit(0); !f.IsHead() || f.IsTail() {
		t.Error("flit 0 should be head")
	}
	if f := m.Flit(1); f.IsHead() || f.IsTail() {
		t.Error("flit 1 should be body")
	}
	if f := m.Flit(3); f.IsHead() || !f.IsTail() {
		t.Error("flit 3 should be tail")
	}
	single := pool.New(2, 0, 5, 1, Adaptive, 0)
	f := single.Flit(0)
	if !f.IsHead() || !f.IsTail() {
		t.Error("single-flit message must be both head and tail")
	}
}

func TestFlitRangePanics(t *testing.T) {
	m := NewPool(2, false).New(1, 0, 5, 4, Deterministic, 0)
	for _, seq := range []int{-1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Flit(%d) did not panic", seq)
				}
			}()
			m.Flit(seq)
		}()
	}
}

func TestNewPanicsOnZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-length message did not panic")
		}
	}()
	New(1, 0, 5, 0, 2, Deterministic, 0)
}

func TestViaStack(t *testing.T) {
	m := New(1, 0, topology.NodeID(9), 4, 2, Deterministic, 0)
	if m.Target() != 9 {
		t.Fatalf("target = %d, want final 9", m.Target())
	}
	m.PushVia(3)
	m.PushVia(7)
	if m.Target() != 7 {
		t.Fatalf("target = %d, want top via 7", m.Target())
	}
	m.PopViasAt(7)
	if m.Target() != 3 {
		t.Fatalf("target = %d, want 3", m.Target())
	}
	m.PopViasAt(3)
	if m.Target() != 9 {
		t.Fatalf("target = %d, want final 9 after pops", m.Target())
	}
}

func TestPopViasAt(t *testing.T) {
	m := New(1, 0, 9, 4, 2, Deterministic, 0)
	m.PushVia(3)
	m.PushVia(5)
	m.PushVia(5)
	m.PopViasAt(5)
	if m.Target() != 3 {
		t.Fatalf("target = %d after PopViasAt(5), want 3", m.Target())
	}
	m.PopViasAt(7) // no-op
	if m.Target() != 3 {
		t.Fatal("PopViasAt with non-matching node must not pop")
	}
}

func TestResetForReinjection(t *testing.T) {
	m := New(1, 0, 9, 4, 3, Adaptive, 0)
	m.Crossed[0] = true
	m.Crossed[2] = true
	m.Reversed[1] = true
	m.DirOverride[1] = topology.Minus
	m.ResetForReinjection()
	for i, c := range m.Crossed {
		if c {
			t.Errorf("Crossed[%d] not reset", i)
		}
	}
	if !m.Reversed[1] || m.DirOverride[1] != topology.Minus {
		t.Error("rerouting decision must survive re-injection")
	}
}

func TestModeString(t *testing.T) {
	if Deterministic.String() != "deterministic" || Adaptive.String() != "adaptive" {
		t.Error("mode strings wrong")
	}
}

func TestMessageString(t *testing.T) {
	m := New(7, 1, 2, 32, 2, Adaptive, 0)
	if got := m.String(); got == "" {
		t.Error("empty String()")
	}
}
