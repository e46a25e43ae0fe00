package traffic

import (
	"fmt"
	"sort"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Replay re-drives a captured workload: the exact (cycle, src, dst, len)
// records of a previous run (or a synthetic trace) are emitted at their
// recorded cycles, making the offered traffic rng-free and byte-for-byte
// repeatable across configurations — the workload analogue of replaying a
// packet capture.
type Replay struct {
	t       topology.Network
	mode    message.Mode
	recs    []trace.WorkloadRecord
	pos     int
	nextID  uint64
	created uint64
}

// NewReplay builds a replay source over the records of w. Records are
// validated against the network (endpoints in range, healthy, distinct;
// positive length) and sorted by cycle, preserving the order of records
// within a cycle.
func NewReplay(t topology.Network, f *fault.Set, w *trace.Workload, mode message.Mode) (*Replay, error) {
	if t == nil {
		return nil, fmt.Errorf("traffic: replay needs a topology")
	}
	if w == nil || len(w.Records) == 0 {
		return nil, fmt.Errorf("traffic: replay workload is empty")
	}
	total := t.Nodes()
	recs := append([]trace.WorkloadRecord(nil), w.Records...)
	for i, r := range recs {
		switch {
		case r.Cycle < 0:
			return nil, fmt.Errorf("traffic: replay record %d: negative cycle %d", i, r.Cycle)
		case int(r.Src) < 0 || int(r.Src) >= total || int(r.Dst) < 0 || int(r.Dst) >= total:
			return nil, fmt.Errorf("traffic: replay record %d: endpoints %d->%d out of range [0,%d)", i, r.Src, r.Dst, total)
		case r.Src == r.Dst:
			return nil, fmt.Errorf("traffic: replay record %d: self-addressed message at node %d", i, r.Src)
		case r.Len < 1 || r.Len > message.MaxLen:
			return nil, fmt.Errorf("traffic: replay record %d: message length %d not in [1,%d]", i, r.Len, message.MaxLen)
		}
		if f != nil && (f.NodeFaulty(r.Src) || f.NodeFaulty(r.Dst)) {
			return nil, fmt.Errorf("traffic: replay record %d: endpoint of %d->%d is faulty", i, r.Src, r.Dst)
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Cycle < recs[j].Cycle })
	return &Replay{t: t, mode: mode, recs: recs}, nil
}

// Name implements Source.
func (rp *Replay) Name() string { return "replay" }

// Created returns the number of messages emitted so far.
func (rp *Replay) Created() uint64 { return rp.created }

// Remaining returns the number of records not yet emitted.
func (rp *Replay) Remaining() int { return len(rp.recs) - rp.pos }

// MeanRate implements MeanRater: records per cycle over the captured span,
// so the run bound scales with the trace's actual length rather than λ.
func (rp *Replay) MeanRate() float64 {
	span := rp.recs[len(rp.recs)-1].Cycle
	if span < 1 {
		span = 1
	}
	return float64(len(rp.recs)) / float64(span)
}

// Poll implements Source: every record with a cycle <= now that has not
// been emitted yet becomes a message created at now.
func (rp *Replay) Poll(now int64) []*message.Message {
	var out []*message.Message
	for rp.pos < len(rp.recs) && rp.recs[rp.pos].Cycle <= now {
		r := rp.recs[rp.pos]
		rp.pos++
		m := message.New(rp.nextID, r.Src, r.Dst, r.Len, rp.t.N(), rp.mode, now)
		rp.nextID++
		rp.created++
		out = append(out, m)
	}
	return out
}

// Capture wraps a Source and records every message it emits into a
// trace.Workload, which can later be written out and re-driven by Replay.
type Capture struct {
	inner Source
	w     *trace.Workload
}

// NewCapture wraps src so its output is appended to w.
func NewCapture(src Source, w *trace.Workload) *Capture {
	if src == nil || w == nil {
		panic("traffic: NewCapture needs a source and a workload")
	}
	return &Capture{inner: src, w: w}
}

// Name implements Source.
func (c *Capture) Name() string { return c.inner.Name() }

// MeanRate implements MeanRater by delegating to the wrapped source;
// 0 when the source does not report a rate.
func (c *Capture) MeanRate() float64 {
	if mr, ok := c.inner.(MeanRater); ok {
		return mr.MeanRate()
	}
	return 0
}

// Poll implements Source.
func (c *Capture) Poll(now int64) []*message.Message {
	out := c.inner.Poll(now)
	for _, m := range out {
		c.w.Append(trace.WorkloadRecord{Cycle: now, Src: m.Src, Dst: m.Dst, Len: m.Len})
	}
	return out
}
