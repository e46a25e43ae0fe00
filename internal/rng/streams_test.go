package rng

import "testing"

// TestSplitLabelCollision pins Split's collision contract: from one parent
// state, equal labels give equal children and distinct labels give distinct
// children — which is exactly why label namespaces exist. It also documents
// the sharp edge: Split advances the parent, so two *sequential* Splits
// with the same label do NOT collide (they see different parent states).
func TestSplitLabelCollision(t *testing.T) {
	// Same state + same label → identical child stream.
	a, b := New(42), New(42)
	ca, cb := a.Split(7), b.Split(7)
	for i := 0; i < 64; i++ {
		if ca.Uint64() != cb.Uint64() {
			t.Fatalf("same state + same label diverged at draw %d", i)
		}
	}
	// Same state + distinct labels → distinct children.
	a, b = New(42), New(42)
	ca, cb = a.Split(7), b.Split(8)
	same := true
	for i := 0; i < 8; i++ {
		if ca.Uint64() != cb.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct labels from the same state produced the same stream")
	}
	// Sequential Splits with one label differ (parent state advanced): the
	// reason label reuse across subsystems is only safe from one shared
	// split point, and why the namespace scheme exists at all.
	p := New(42)
	c1, c2 := p.Split(7), p.Split(7)
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sequential same-label splits unexpectedly collided on the first draw")
	}
}

// TestStreamLabelNamespaces checks the derivation scheme: router labels
// are injective over ids, never collide with the schedule label, and all
// stay clear of the small run-level split literals.
func TestStreamLabelNamespaces(t *testing.T) {
	seen := map[uint64]int{ScheduleLabel(): -1}
	for id := 0; id < 4096; id++ {
		l := RouterLabel(id)
		if prev, dup := seen[l]; dup {
			t.Fatalf("label %#x assigned to both router(%d) and %d (-1 = schedule)", l, id, prev)
		}
		seen[l] = id
	}
	for l := range seen {
		if l < 1<<56 {
			t.Fatalf("label %#x below the namespace floor; collides with ad-hoc run-level labels", l)
		}
	}
	// The boundary ids of the 32-bit entity range are accepted...
	_ = RouterLabel(0xffffffff)
	// ...and out-of-scheme ids panic rather than alias another entity.
	for _, bad := range []int{-1, 1 << 32} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("RouterLabel(%d) did not panic", bad)
				}
			}()
			RouterLabel(bad)
		}()
	}
}

// TestRouterStreamsIndependent spot-checks that per-router streams derived
// from one engine stream are pairwise distinct (the property the engine's
// per-router VC selection relies on).
func TestRouterStreamsIndependent(t *testing.T) {
	parent := New(1).Split(2) // the engine stream of a seed-1 run
	const n = 256
	firsts := map[uint64]int{}
	for id := 0; id < n; id++ {
		s := parent.Split(RouterLabel(id))
		v := s.Uint64()
		if prev, dup := firsts[v]; dup {
			t.Fatalf("router streams %d and %d share their first draw %#x", prev, id, v)
		}
		firsts[v] = id
	}
}

// TestSplitValueIsSplit: the by-value split derives the very child Split
// does, and advances the parent the same way.
func TestSplitValueIsSplit(t *testing.T) {
	a, b := New(42), New(42)
	for label := uint64(0); label < 4; label++ {
		ptr, val := a.Split(RouterLabel(int(label))), b.SplitValue(RouterLabel(int(label)))
		if *ptr != val {
			t.Fatalf("label %d: SplitValue's child differs from Split's", label)
		}
	}
	if a.Uint64() != b.Uint64() {
		t.Fatal("SplitValue left the parent in another state than Split")
	}
}
