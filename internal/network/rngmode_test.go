package network

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/topology"
	"repro/internal/trace"
)

// traceHash folds an event trace into one FNV-1a word, field by field, so
// golden tests can pin a full run without committing megabytes of events.
func traceHash(evs []trace.Event) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, e := range evs {
		put(uint64(e.Cycle))
		put(e.Msg)
		put(uint64(e.Kind))
		put(uint64(e.Node))
	}
	return h.Sum64()
}

// TestPerRouterRNGGolden pins the per-router rng default — the draw
// sequence that replaced the legacy global stream — against a golden trace
// hash on the canonical faulted-torus run. Per-router draws necessarily
// changed the sequence relative to the old engine (the migration note in
// ARCHITECTURE.md documents this), so the new default gets its own golden:
// any unintended reordering of draws (scheduler changes, worker commit
// bugs, Split-label edits) moves this hash.
func TestPerRouterRNGGolden(t *testing.T) {
	const golden uint64 = 0xf48a7c7ac3a7bfac
	ev, _ := runTraced(t, topology.New(8, 2), "adaptive", 6, nil)
	if h := traceHash(ev); h != golden {
		t.Fatalf("per-router rng trace hash = %#x, want %#x (the default draw sequence changed; "+
			"if intentional, update the golden and the ARCHITECTURE.md migration note)", h, golden)
	}
}
