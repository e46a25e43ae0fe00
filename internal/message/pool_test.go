package message

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestPoolRecyclesStorageAndSlots(t *testing.T) {
	p := NewPool(2, false)
	m1 := p.New(1, 0, 5, 4, Deterministic, 10)
	ref1, ok := m1.Ref()
	if !ok {
		t.Fatal("pool-allocated message reports no Ref")
	}
	if p.At(ref1) != m1 {
		t.Fatal("At does not resolve to the allocated message")
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
	p.Free(ref1)
	if p.Live() != 0 {
		t.Fatalf("live after free = %d, want 0", p.Live())
	}
	if _, ok := m1.Ref(); ok {
		t.Fatal("freed message still reports a Ref")
	}

	// Arena mode recycles both the slot and the storage, LIFO.
	m2 := p.New(2, 3, 7, 4, Adaptive, 20)
	if m2 != m1 {
		t.Fatal("arena did not recycle the freed message storage")
	}
	ref2, _ := m2.Ref()
	if ref2 != ref1 {
		t.Fatalf("slot not recycled: ref %d, want %d", ref2, ref1)
	}
	// The recycled message must be fully reset — no state from the
	// previous occupant.
	if m2.ID != 2 || m2.Src != 3 || m2.Dst != 7 || m2.Mode != Adaptive || m2.CreatedAt != 20 {
		t.Fatalf("recycled message not reinitialised: %+v", m2)
	}
	if m2.DeliveredAt != -1 || m2.Absorptions != 0 || m2.Pending != StopNone || len(m2.Via) != 0 {
		t.Fatalf("recycled message carries stale state: %+v", m2)
	}
}

func TestPoolViaBackingRetained(t *testing.T) {
	p := NewPool(2, false)
	m := p.New(1, 0, 5, 4, Deterministic, 0)
	m.PushVia(3)
	m.PushVia(7)
	grown := cap(m.Via)
	if grown < 2 {
		t.Fatalf("via cap = %d after two pushes", grown)
	}
	ref, _ := m.Ref()
	p.Free(ref)
	m2 := p.New(2, 0, 5, 4, Deterministic, 0)
	if m2 != m {
		t.Fatal("expected storage recycle")
	}
	if len(m2.Via) != 0 {
		t.Fatalf("recycled via stack not empty: %v", m2.Via)
	}
	if cap(m2.Via) != grown {
		t.Fatalf("via backing not retained: cap %d, want %d", cap(m2.Via), grown)
	}
}

// TestPoolChunkExhaustionGrows holds the arena to its growth schedule —
// chunks of 16, 32, 64, 128, then 256 messages — and to reuse: freeing every
// message and allocating as many again grows nothing.
func TestPoolChunkExhaustionGrows(t *testing.T) {
	p := NewPool(2, false)
	// ends[c] is the live count that fills chunk c+1.
	ends := []int{16, 48, 112, 240, 496, 752}
	const n = 753
	live := make([]*Message, 0, n)
	for i := 0; i < n; i++ {
		live = append(live, p.New(uint64(i), 0, 5, 4, Deterministic, 0))
		want := 1
		for _, end := range ends {
			if i+1 > end {
				want++
			}
		}
		if p.Chunks() != want {
			t.Fatalf("chunks = %d after %d live messages, want %d", p.Chunks(), i+1, want)
		}
	}
	if p.Live() != n || p.Cap() != n {
		t.Fatalf("live/cap = %d/%d, want %d/%d", p.Live(), p.Cap(), n, n)
	}
	// Distinct storage for every live message.
	seen := make(map[*Message]bool, len(live))
	for _, m := range live {
		if seen[m] {
			t.Fatal("pool handed out the same storage twice while live")
		}
		seen[m] = true
	}
	// Free everything; reallocating the same count must not grow further.
	for _, m := range live {
		ref, _ := m.Ref()
		p.Free(ref)
	}
	for i := 0; i < n; i++ {
		p.New(uint64(i), 0, 5, 4, Deterministic, 0)
	}
	if p.Chunks() != len(ends)+1 || p.Cap() != n {
		t.Fatalf("pool grew on reuse: chunks=%d cap=%d", p.Chunks(), p.Cap())
	}
}

func TestPoolAdoptForeignMessage(t *testing.T) {
	p := NewPool(2, false)
	m := New(1, 0, 5, 4, 2, Deterministic, 0)
	ref := p.Adopt(m)
	if p.At(ref) != m {
		t.Fatal("adopted message does not resolve")
	}
	if again := p.Adopt(m); again != ref {
		t.Fatalf("re-adopt returned %d, want existing %d", again, ref)
	}
	if p.Live() != 1 {
		t.Fatalf("live = %d, want 1", p.Live())
	}
	// Flits of an adopted message carry the pool ref.
	if f := m.Flit(3); f.Ref() != ref || !f.IsTail() {
		t.Fatalf("flit = %+v, want ref %d tail", f, ref)
	}
	p.Free(ref)
	// Foreign storage is unregistered, never recycled: the caller's
	// pointer stays inspectable and the next allocation is fresh.
	if m.DeliveredAt != -1 {
		t.Fatal("freed foreign message was clobbered")
	}
	if m2 := p.New(2, 0, 5, 4, Deterministic, 0); m2 == m {
		t.Fatal("pool recycled foreign storage")
	}
}

func TestPoolFreeDeadRefPanics(t *testing.T) {
	p := NewPool(2, false)
	m := p.New(1, 0, 5, 4, Deterministic, 0)
	ref, _ := m.Ref()
	p.Free(ref)
	defer func() {
		if recover() == nil {
			t.Fatal("double Free did not panic")
		}
	}()
	p.Free(ref)
}

func TestFlitOnUnregisteredMessagePanics(t *testing.T) {
	m := New(1, 0, 5, 4, 2, Deterministic, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Flit on unregistered message did not panic")
		}
	}()
	m.Flit(0)
}

func TestNewPoolValidatesDims(t *testing.T) {
	for _, n := range []int{0, MaxDims + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPool(%d) did not panic", n)
				}
			}()
			NewPool(n, false)
		}()
	}
}

// TestQueueMatchesSlices drives random Enqueue/Dequeue/FilterQueue
// sequences on three queues threaded through one pool against one slice
// per queue, checking Head, Empty and QueueLen after every operation.
func TestQueueMatchesSlices(t *testing.T) {
	type entry struct {
		ref Ref
		at  int64
	}
	if err := quick.Check(func(ops []uint16) bool {
		p := NewPool(2, false)
		var qs [3]Queue
		var ref [3][]entry
		var free []Ref // messages in no queue
		for i := 0; i < 12; i++ {
			m, _ := p.New(uint64(i), 0, 1, 1, Deterministic, 0).Ref()
			free = append(free, m)
		}
		for i, op := range ops {
			q := int(op>>2) % 3
			switch op & 3 {
			case 0, 1:
				if len(free) == 0 {
					continue
				}
				e := entry{free[len(free)-1], int64(i)}
				free = free[:len(free)-1]
				p.Enqueue(&qs[q], e.ref, e.at)
				ref[q] = append(ref[q], e)
			case 2:
				if len(ref[q]) == 0 {
					continue
				}
				p.Dequeue(&qs[q])
				free = append(free, ref[q][0].ref)
				ref[q] = ref[q][1:]
			case 3:
				drop := func(r Ref) bool { return int(r)%3 == int(op>>4)%3 }
				var kept []entry
				var want []Ref
				for _, e := range ref[q] {
					if drop(e.ref) {
						want = append(want, e.ref)
					} else {
						kept = append(kept, e)
					}
				}
				if got := p.FilterQueue(&qs[q], drop); !slices.Equal(got, want) {
					return false
				}
				free = append(free, want...)
				ref[q] = kept
			}
			for q := range qs {
				if qs[q].Empty() != (len(ref[q]) == 0) || p.QueueLen(qs[q]) != len(ref[q]) {
					return false
				}
				if len(ref[q]) > 0 {
					if r, at := p.Head(qs[q]); r != ref[q][0].ref || at != ref[q][0].at {
						return false
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
