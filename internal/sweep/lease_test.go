package sweep

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestLeaseTableFIFOAndRenew(t *testing.T) {
	lt := NewLeaseTable(10*time.Second, 3)
	now := time.Unix(1000, 0)
	for _, id := range []string{"a", "b", "c"} {
		if !lt.Add(id) {
			t.Fatalf("Add(%s) = false, want true", id)
		}
	}
	if lt.Add("a") {
		t.Fatal("re-Add(a) = true, want no-op false")
	}

	id1, tok1, ok := lt.Acquire(now, "w1")
	if !ok || id1 != "a" {
		t.Fatalf("first Acquire = %q, want a", id1)
	}
	id2, _, ok := lt.Acquire(now, "w2")
	if !ok || id2 != "b" {
		t.Fatalf("second Acquire = %q, want b (FIFO)", id2)
	}
	if q, l, f := lt.Counts(); q != 1 || l != 2 || f != 0 {
		t.Fatalf("Counts = %d/%d/%d, want 1 queued, 2 leased, 0 failed", q, l, f)
	}

	// Renew holds the lease across what would otherwise be an expiry.
	now = now.Add(9 * time.Second)
	if err := lt.Renew("a", tok1, now); err != nil {
		t.Fatalf("Renew(a): %v", err)
	}
	if err := lt.Renew("a", "bogus", now); err == nil {
		t.Fatal("Renew with wrong token succeeded")
	}
	if err := lt.Renew("zz", tok1, now); err == nil {
		t.Fatal("Renew of unknown point succeeded")
	}
	now = now.Add(5 * time.Second) // a renewed to t+23s; b expired at t+10s
	requeued, failed := lt.Expire(now)
	if len(requeued) != 1 || requeued[0] != "b" || len(failed) != 0 {
		t.Fatalf("Expire = requeued %v failed %v, want [b] []", requeued, failed)
	}
	// b re-queued behind c (never-attempted work first).
	id3, _, _ := lt.Acquire(now, "w3")
	id4, _, _ := lt.Acquire(now, "w3")
	if id3 != "c" || id4 != "b" {
		t.Fatalf("post-expiry order = %q, %q; want c then b", id3, id4)
	}

	if w, _, held := lt.Holder("a"); !held || w != "w1" {
		t.Fatalf("Holder(a) = %q/%v, want w1 held", w, held)
	}
	if !lt.Remove("a") {
		t.Fatal("Remove(a) = false")
	}
	if _, _, held := lt.Holder("a"); held {
		t.Fatal("Holder(a) held after Remove")
	}
}

func TestLeaseTableBoundedRetries(t *testing.T) {
	lt := NewLeaseTable(time.Second, 1) // one re-assignment allowed
	lt.Add("p")
	now := time.Unix(0, 0)
	for round := 0; round < 2; round++ {
		id, _, ok := lt.Acquire(now, "w")
		if !ok || id != "p" {
			t.Fatalf("round %d: Acquire = %q/%v", round, id, ok)
		}
		now = now.Add(2 * time.Second)
		requeued, failed := lt.Expire(now)
		if round == 0 {
			if len(requeued) != 1 || len(failed) != 0 {
				t.Fatalf("first expiry: requeued %v failed %v, want re-queue", requeued, failed)
			}
		} else {
			if len(requeued) != 0 || len(failed) != 1 || failed[0] != "p" {
				t.Fatalf("second expiry: requeued %v failed %v, want failed [p]", requeued, failed)
			}
		}
	}
	if _, _, ok := lt.Acquire(now, "w"); ok {
		t.Fatal("failed point still acquirable")
	}
	if reason := lt.FailReason("p"); reason == "" {
		t.Fatal("FailReason(p) empty after retry exhaustion")
	}
	if q, l, f := lt.Counts(); q != 0 || l != 0 || f != 1 {
		t.Fatalf("Counts = %d/%d/%d, want 0/0/1", q, l, f)
	}
	// A (late) result for a failed point still retires it.
	if !lt.Remove("p") {
		t.Fatal("Remove of failed point = false")
	}
	if reason := lt.FailReason("p"); reason != "" {
		t.Fatalf("FailReason after Remove = %q, want empty", reason)
	}
}

func TestLeaseTableRemoveQueued(t *testing.T) {
	lt := NewLeaseTable(time.Second, 3)
	lt.Add("a")
	lt.Add("b")
	lt.Add("c")
	if !lt.Remove("b") {
		t.Fatal("Remove(b) = false")
	}
	now := time.Unix(0, 0)
	id1, _, _ := lt.Acquire(now, "w")
	id2, _, _ := lt.Acquire(now, "w")
	if id1 != "a" || id2 != "c" {
		t.Fatalf("Acquire after mid-queue Remove = %q, %q; want a, c", id1, id2)
	}
	if _, _, ok := lt.Acquire(now, "w"); ok {
		t.Fatal("queue should be empty")
	}
}

// refLeaseTable is the lease table as it stood before Expire became
// O(held leases), Counts O(1) and the queue head-indexed: every known
// point in one map that Expire and Counts walk, the queue popped by
// re-slicing. No product code builds one any more; it lives here as the
// reference TestLeaseTableMatchesReference holds LeaseTable to, call for
// call.
type refLeaseTable struct {
	// TTL is the lease duration granted by Acquire and restored by Renew.
	TTL time.Duration
	// MaxRetries bounds lease re-assignments per point: a point whose
	// lease expires a (MaxRetries+1)-th time fails instead of re-queuing.
	MaxRetries int

	seq     uint64 // lease token counter
	entries map[string]*refLeaseEntry
	queue   []string // queued point IDs, FIFO
}

type refLeaseEntry struct {
	state   leaseState
	worker  string
	token   string
	expiry  time.Time
	retries int // expired-lease count so far
	reason  string
}

func newRefLeaseTable(ttl time.Duration, maxRetries int) *refLeaseTable {
	return &refLeaseTable{TTL: ttl, MaxRetries: maxRetries, entries: map[string]*refLeaseEntry{}}
}

func (t *refLeaseTable) Add(id string) bool {
	if _, ok := t.entries[id]; ok {
		return false
	}
	t.entries[id] = &refLeaseEntry{state: stateQueued}
	t.queue = append(t.queue, id)
	return true
}

func (t *refLeaseTable) Acquire(now time.Time, worker string) (id, token string, ok bool) {
	if len(t.queue) == 0 {
		return "", "", false
	}
	id = t.queue[0]
	t.queue = t.queue[1:]
	e := t.entries[id]
	t.seq++
	e.state = stateLeased
	e.worker = worker
	e.token = fmt.Sprintf("L%d", t.seq)
	e.expiry = now.Add(t.TTL)
	return id, e.token, true
}

func (t *refLeaseTable) Renew(id, token string, now time.Time) error {
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

func (t *refLeaseTable) Expire(now time.Time) (requeued, failed []string) {
	// Collect, then sort: map iteration order must not leak into queue
	// order (the determinism contract extends to lease hand-out order
	// for a fixed request sequence).
	var stale []string
	for id, e := range t.entries {
		if e.state == stateLeased && now.After(e.expiry) {
			stale = append(stale, id)
		}
	}
	sort.Strings(stale)
	for _, id := range stale {
		e := t.entries[id]
		e.retries++
		e.worker, e.token = "", ""
		if e.retries > t.MaxRetries {
			e.state = stateFailed
			e.reason = fmt.Sprintf("lease expired %d times (worker died mid-point?)", e.retries)
			failed = append(failed, id)
			continue
		}
		e.state = stateQueued
		t.queue = append(t.queue, id)
		requeued = append(requeued, id)
	}
	return requeued, failed
}

func (t *refLeaseTable) Remove(id string) bool {
	e, ok := t.entries[id]
	if !ok {
		return false
	}
	delete(t.entries, id)
	if e.state == stateQueued {
		for i, qid := range t.queue {
			if qid == id {
				t.queue = append(t.queue[:i], t.queue[i+1:]...)
				break
			}
		}
	}
	return true
}

func (t *refLeaseTable) Holder(id string) (worker, token string, held bool) {
	if e, ok := t.entries[id]; ok && e.state == stateLeased {
		return e.worker, e.token, true
	}
	return "", "", false
}

func (t *refLeaseTable) FailReason(id string) string {
	if e, ok := t.entries[id]; ok && e.state == stateFailed {
		return e.reason
	}
	return ""
}

func (t *refLeaseTable) Counts() (queued, leased, failed int) {
	for _, e := range t.entries {
		switch e.state {
		case stateQueued:
			queued++
		case stateLeased:
			leased++
		case stateFailed:
			failed++
		}
	}
	return queued, leased, failed
}

func (t *refLeaseTable) Leases() []LeaseInfo {
	var out []LeaseInfo
	for id, e := range t.entries {
		if e.state == stateLeased {
			out = append(out, LeaseInfo{ID: id, Worker: e.worker, Expiry: e.expiry, Retries: e.retries})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TestLeaseTableMatchesReference drives LeaseTable and the reference
// through the same random Add/Acquire/Renew/Expire/Remove sequence under
// a fake clock. Every call must return the same values — ids, tokens,
// errors, the requeued and failed slices in order — and after every call
// the two must agree on Counts, Leases and, for every id ever used, on
// Holder and FailReason.
func TestLeaseTableMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		ttl := time.Duration(1+r.Intn(5)) * time.Second
		retries := r.Intn(3)
		got, want := NewLeaseTable(ttl, retries), newRefLeaseTable(ttl, retries)
		now := time.Unix(1000, 0)
		ids := make([]string, 12+r.Intn(30))
		for i := range ids {
			ids[i] = fmt.Sprintf("p%02d", i)
		}
		tokens := map[string]string{} // last token granted per id, stale ones included
		for step := 0; step < 4000; step++ {
			id := ids[r.Intn(len(ids))]
			var op string
			switch k := r.Intn(10); {
			case k < 3:
				op = "Add " + id
				if g, w := got.Add(id), want.Add(id); g != w {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, op, g, w)
				}
			case k < 6:
				op = "Acquire"
				worker := fmt.Sprintf("w%d", r.Intn(3))
				gi, gt, gok := got.Acquire(now, worker)
				wi, wt, wok := want.Acquire(now, worker)
				if gi != wi || gt != wt || gok != wok {
					t.Fatalf("seed %d step %d: Acquire = %q %q %v, reference %q %q %v", seed, step, gi, gt, gok, wi, wt, wok)
				}
				if gok {
					tokens[gi] = gt
				}
			case k < 7:
				op = "Renew " + id
				ge, we := got.Renew(id, tokens[id], now), want.Renew(id, tokens[id], now)
				if fmt.Sprint(ge) != fmt.Sprint(we) {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, op, ge, we)
				}
			case k < 8:
				op = "Remove " + id
				if g, w := got.Remove(id), want.Remove(id); g != w {
					t.Fatalf("seed %d step %d: %s = %v, reference %v", seed, step, op, g, w)
				}
			default:
				now = now.Add(time.Duration(r.Intn(3000)) * time.Millisecond)
				op = "Expire"
				gr, gf := got.Expire(now)
				wr, wf := want.Expire(now)
				if !reflect.DeepEqual(gr, wr) || !reflect.DeepEqual(gf, wf) {
					t.Fatalf("seed %d step %d: Expire = requeued %v failed %v, reference %v %v", seed, step, gr, gf, wr, wf)
				}
			}
			gq, gl, gf := got.Counts()
			wq, wl, wf := want.Counts()
			if gq != wq || gl != wl || gf != wf {
				t.Fatalf("seed %d step %d after %s: Counts = %d/%d/%d, reference %d/%d/%d", seed, step, op, gq, gl, gf, wq, wl, wf)
			}
			if g, w := got.Leases(), want.Leases(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d after %s: Leases = %+v, reference %+v", seed, step, op, g, w)
			}
			for _, id := range ids {
				gw, gt, gh := got.Holder(id)
				ww, wt, wh := want.Holder(id)
				if gw != ww || gt != wt || gh != wh {
					t.Fatalf("seed %d step %d after %s: Holder(%s) = %q %q %v, reference %q %q %v", seed, step, op, id, gw, gt, gh, ww, wt, wh)
				}
				if g, w := got.FailReason(id), want.FailReason(id); g != w {
					t.Fatalf("seed %d step %d after %s: FailReason(%s) = %q, reference %q", seed, step, op, id, g, w)
				}
			}
		}
	}
}
