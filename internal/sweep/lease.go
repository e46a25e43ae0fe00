package sweep

import (
	"fmt"
	"sort"
	"strconv"
	"time"
)

// LeaseTable is the coordinator's bookkeeping for points that still
// need computing: a FIFO queue of point IDs plus the set of leases
// currently held by workers. It is a pure data structure — every method
// that depends on time takes the current instant as an argument, so the
// coordinator injects a real clock and tests a fake one — and it is not
// concurrency-safe; the owner serialises access (the coordinator holds
// its state mutex).
//
// Lifecycle of a point: Add queues it; Acquire leases the queue head to
// a worker with a TTL; Renew extends a held lease (worker heartbeats);
// Remove retires the point when its result arrives (regardless of who
// holds the lease — results from expired leases are still valid, the
// engine is deterministic). A lease whose TTL passes without renewal is
// expired by Expire: the point re-queues for another worker, up to
// MaxRetries re-assignments, after which it is marked failed — the
// bounded-retry guard that keeps a point whose config crashes every
// worker from looping forever.
type LeaseTable struct {
	// TTL is the lease duration granted by Acquire and restored by Renew.
	TTL time.Duration
	// MaxRetries bounds lease re-assignments per point: a point whose
	// lease expires a (MaxRetries+1)-th time fails instead of re-queuing.
	MaxRetries int

	seq     uint64 // lease token counter
	entries map[string]*leaseEntry

	// queue[head:] is the FIFO of queued points. It is head-indexed so a
	// pop does not leak the front capacity (as q = q[1:] would); an entry
	// removed while queued stays behind as a tombstone (state no longer
	// stateQueued) that Acquire skips. queued counts the live ones.
	queue  []*leaseEntry
	head   int
	queued int
	// held is the set of leased entries, unordered (leaseEntry.held is the
	// index): what Expire and Leases walk instead of every known point.
	held   []*leaseEntry
	failed int
}

// leaseEntry tracks one point known to the table.
type leaseEntry struct {
	id      string
	state   leaseState
	worker  string
	token   string
	expiry  time.Time
	retries int // expired-lease count so far
	reason  string
	held    int // index in LeaseTable.held while stateLeased
}

type leaseState int

const (
	stateQueued leaseState = iota
	stateLeased
	stateFailed
	stateRemoved // retired while queued: a tombstone in the queue
)

// NewLeaseTable returns an empty table whose leases last ttl (> 0) and
// whose points fail after maxRetries (>= 0) re-assignments; 0 fails a
// point on its first expiry. coord.NewServer owns the defaults.
func NewLeaseTable(ttl time.Duration, maxRetries int) *LeaseTable {
	return &LeaseTable{TTL: ttl, MaxRetries: maxRetries, entries: map[string]*leaseEntry{}}
}

// enqueue puts e at the back of the queue. A queue that is never fully
// drained (Acquire rewinds it then) slides down over its popped front
// instead of growing past it.
func (t *LeaseTable) enqueue(e *leaseEntry) {
	if len(t.queue) == cap(t.queue) && t.head > len(t.queue)/2 {
		n := copy(t.queue, t.queue[t.head:])
		clear(t.queue[n:])
		t.queue, t.head = t.queue[:n], 0
	}
	e.state = stateQueued
	t.queue = append(t.queue, e)
	t.queued++
}

// release takes e out of the held set.
func (t *LeaseTable) release(e *leaseEntry) {
	last := t.held[len(t.held)-1]
	t.held[e.held] = last
	last.held = e.held
	t.held[len(t.held)-1] = nil
	t.held = t.held[:len(t.held)-1]
}

// Add queues a point for execution. Re-adding a known (queued, leased
// or failed) point is a no-op returning false, so duplicate plan
// submissions cannot double-queue work.
func (t *LeaseTable) Add(id string) bool {
	if _, ok := t.entries[id]; ok {
		return false
	}
	e := &leaseEntry{id: id}
	t.entries[id] = e
	t.enqueue(e)
	return true
}

// Acquire leases the queue head to worker until now+TTL, returning
// ok=false when nothing is queued. Callers sweep stale leases first
// (Expire); Acquire itself never expires, so the owner controls when
// expiry side effects (counters, logs) happen. The token is returned to
// the worker and must accompany Renew; it is an assignment identifier,
// not a secret.
func (t *LeaseTable) Acquire(now time.Time, worker string) (id, token string, ok bool) {
	var e *leaseEntry
	for e == nil && t.head < len(t.queue) {
		if head := t.queue[t.head]; head.state == stateQueued {
			e = head
		}
		t.queue[t.head] = nil
		t.head++
	}
	if t.head == len(t.queue) {
		t.queue, t.head = t.queue[:0], 0
	}
	if e == nil {
		return "", "", false
	}
	t.queued--
	t.seq++
	e.state = stateLeased
	e.worker = worker
	e.token = "L" + strconv.FormatUint(t.seq, 10)
	e.expiry = now.Add(t.TTL)
	e.held = len(t.held)
	t.held = append(t.held, e)
	return e.id, e.token, true
}

// Renew extends the lease on id held under token until now+TTL. It
// errors when the point is unknown, not leased, or leased under a
// different token — the last is what a worker sees after its lease
// expired and the point moved on (re-queued or re-leased), telling it
// the coordinator no longer counts on it.
func (t *LeaseTable) Renew(id, token string, now time.Time) error {
	e, ok := t.entries[id]
	if !ok {
		return fmt.Errorf("sweep: renew %s: unknown or already completed point", id)
	}
	if e.state != stateLeased || e.token != token {
		return fmt.Errorf("sweep: renew %s: lease %s no longer held (expired and re-assigned?)", id, token)
	}
	e.expiry = now.Add(t.TTL)
	return nil
}

// Expire sweeps every lease whose TTL has passed as of now: requeued
// returns the points handed back to the queue for another worker, and
// failed the points that exhausted MaxRetries instead. Re-queued points
// go to the back of the queue, behind work never attempted — a point
// that already burned one worker's lease should not starve fresh
// points. The cost is proportional to the leases held, not to the
// points known: the coordinator calls it on every request.
func (t *LeaseTable) Expire(now time.Time) (requeued, failed []string) {
	// Collect, then sort: the held set's order must not leak into queue
	// order (the determinism contract extends to lease hand-out order
	// for a fixed request sequence).
	var stale []*leaseEntry
	for _, e := range t.held {
		if now.After(e.expiry) {
			stale = append(stale, e)
		}
	}
	sort.Slice(stale, func(i, j int) bool { return stale[i].id < stale[j].id })
	for _, e := range stale {
		t.release(e)
		e.retries++
		e.worker, e.token = "", ""
		if e.retries > t.MaxRetries {
			e.state = stateFailed
			e.reason = fmt.Sprintf("lease expired %d times (worker died mid-point?)", e.retries)
			t.failed++
			failed = append(failed, e.id)
			continue
		}
		t.enqueue(e)
		requeued = append(requeued, e.id)
	}
	return requeued, failed
}

// Remove retires a point from the table (its result arrived). It
// reports whether the point was known; removal is valid in any state —
// a result computed under an expired lease is still a correct result.
func (t *LeaseTable) Remove(id string) bool {
	e, ok := t.entries[id]
	if !ok {
		return false
	}
	delete(t.entries, id)
	switch e.state {
	case stateQueued:
		e.state = stateRemoved
		t.queued--
	case stateLeased:
		t.release(e)
	case stateFailed:
		t.failed--
	}
	return true
}

// Holder returns the worker and token currently leasing id; held is
// false when the point is unknown, queued or failed. Result submission
// uses it to classify late results (lease expired or re-assigned before
// the original worker finished).
func (t *LeaseTable) Holder(id string) (worker, token string, held bool) {
	if e, ok := t.entries[id]; ok && e.state == stateLeased {
		return e.worker, e.token, true
	}
	return "", "", false
}

// FailReason returns the failure reason for a point failed by retry
// exhaustion, or "" if the point is not in the failed state.
func (t *LeaseTable) FailReason(id string) string {
	if e, ok := t.entries[id]; ok && e.state == stateFailed {
		return e.reason
	}
	return ""
}

// Counts returns how many known points are queued, leased and failed.
func (t *LeaseTable) Counts() (queued, leased, failed int) {
	return t.queued, len(t.held), t.failed
}

// LeaseInfo is one held lease, as reported by Leases (the /statusz
// per-worker table).
type LeaseInfo struct {
	// ID is the leased point.
	ID string `json:"id"`
	// Worker is the holder's self-reported name.
	Worker string `json:"worker"`
	// Expiry is when the lease lapses unless renewed.
	Expiry time.Time `json:"expiry"`
	// Retries counts prior expired leases on this point.
	Retries int `json:"retries,omitempty"`
}

// Leases returns the currently held leases, sorted by point ID for
// deterministic output.
func (t *LeaseTable) Leases() []LeaseInfo {
	var out []LeaseInfo
	for _, e := range t.held {
		out = append(out, LeaseInfo{ID: e.id, Worker: e.worker, Expiry: e.expiry, Retries: e.retries})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
