package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/metrics"
	"repro/internal/rng"
	"repro/internal/router"
	"repro/internal/routing"
	"repro/internal/sweep"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Isolated kernels for the concrete types a decorator cannot wrap (rng,
// message.Pool, router.Router, metrics.Collector, sweep.Journal,
// sweep.LeaseTable) and for code the engine workloads reach only in
// passing (routing.Walk, the non-default traffic sources). Each is driven
// with inputs shaped like the workload's: its topology, V, message length,
// algorithm and fault count.

// journalRecords is the length of the journal kernel's journal.
const journalRecords = 1024

// sink keeps kernel results alive so the compiler cannot drop the work.
var sink uint64

// kernelNs times batches of a kernel until budget has elapsed (three
// batches at least) and returns the median cost of one operation in ns;
// runBatch performs batch operations.
func kernelNs(budget time.Duration, batch int, runBatch func()) float64 {
	var per []float64
	deadline := time.Now().Add(budget)
	for len(per) < 3 || time.Now().Before(deadline) {
		t0 := time.Now()
		runBatch()
		per = append(per, float64(time.Since(t0))/float64(batch))
	}
	return median(per)
}

// kernelShape is the workload-derived input shape of the kernels.
type kernelShape struct {
	cfg    core.Config
	points []core.Point
	// record is a completed record of the workload, journalled by the
	// append kernel; recoverPath, when set, is the workload's own finished
	// journal (plan workloads), recovered in place of the kernel's.
	record      sweep.Record
	recoverPath string
	dir         string
	budget      time.Duration
}

// runKernels fills the kernel rows of the per-layer metrics.
func runKernels(ks kernelShape, m map[string]float64) error {
	c := ks.cfg
	t, err := c.BuildTopology()
	if err != nil {
		return err
	}
	const batch = 1024

	r := rng.New(c.Seed)
	m["rng.draw_ns"] = kernelNs(ks.budget, batch, func() {
		for i := 0; i < batch; i++ {
			sink += r.Uint64()
		}
	})

	pool := message.NewPool(t.N(), false)
	m["message.new_free_ns"] = kernelNs(ks.budget, batch, func() {
		for i := 0; i < batch; i++ {
			msg := pool.New(uint64(i), 0, 1, c.MsgLen, message.Deterministic, 0)
			ref, _ := msg.Ref()
			pool.Free(ref)
		}
	})

	flit := message.MakeFlit(0, 1, c.MsgLen)
	rt := router.New(0, t.N(), c.V, c.BufDepth)
	m["router.push_pop_ns"] = kernelNs(ks.budget, batch, func() {
		for i := 0; i < batch; i++ {
			rt.Push(0, 0, flit)
			sink += uint64(rt.Pop(0, 0).Seq())
		}
	})
	// One flit arriving on each VC of one port, then a full engine cycle of
	// lane bookkeeping: merge the marks, drain the lanes, retire them.
	tracked := router.New(0, t.N(), c.V, c.BufDepth)
	tracked.EnableLaneTracking()
	m["router.lane_cycle_ns"] = kernelNs(ks.budget, batch, func() {
		for i := 0; i < batch; i++ {
			for vc := 0; vc < c.V; vc++ {
				tracked.Push(1, vc, flit)
			}
			tracked.MergeLanes()
			for _, lane := range tracked.Lanes() {
				port, vc := tracked.LanePortVC(lane)
				tracked.Pop(port, vc)
			}
			sink += uint64(tracked.RetireLanes())
		}
	})

	msg := message.New(0, 0, 1, c.MsgLen, t.N(), message.Deterministic, 0)
	m["metrics.record_ns"] = kernelNs(ks.budget, batch, func() {
		col := metrics.NewCollector(0) // fresh per batch: its latency sample grows
		for i := 0; i < batch; i++ {
			msg.ID = uint64(i)
			col.Generated(msg)
			col.Delivered(msg, int64(i)+100)
		}
		sink += col.DeliveredCount()
	})

	for name, spec := range map[string]string{
		"poisson": "poisson", "burst": "burst:on=50,off=200", "pareto": "pareto",
	} {
		ns, err := pollKernel(ks, t, spec)
		if err != nil {
			return err
		}
		m["traffic.poll_ns_per_msg."+name] = ns
	}

	faulted := c.Faults
	if faulted.Empty() {
		faulted.RandomNodes = 3
	}
	for name, spec := range map[string]core.FaultSpec{"faulted": faulted, "fault_free": {}} {
		ns, err := walkKernel(ks, t, spec)
		if err != nil {
			return err
		}
		m["routing.walk_ns_per_hop."+name] = ns
	}

	// A fixed record count, so the recovery scan below reads the same
	// journal length whatever the host's speed.
	path, err := freshJournal(ks.dir, "kernel")
	if err != nil {
		return err
	}
	journal, err := sweep.OpenJournal(path)
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := 0; i < journalRecords; i++ {
		if err := journal.Append(ks.record); err != nil {
			return err
		}
	}
	m["sweep.journal_append_us"] = float64(time.Since(t0)) / journalRecords / 1e3
	if err := journal.Close(); err != nil {
		return err
	}
	if ks.recoverPath != "" {
		path = ks.recoverPath
	}
	t0 = time.Now()
	recovered, err := sweep.OpenJournal(path)
	m["sweep.journal_recover_ms"] = float64(time.Since(t0)) / 1e6
	if err != nil {
		return err
	}
	sink += uint64(len(recovered.Records()))
	if err := recovered.Close(); err != nil {
		return err
	}

	m["sweep.point_id_us"] = kernelNs(ks.budget, len(ks.points), func() {
		for _, pt := range ks.points {
			sink += uint64(len(sweep.PointID(pt)))
		}
	}) / 1e3

	leases := sweep.NewLeaseTable(15*time.Second, 3)
	now := time.Unix(0, 0)
	ids := make([]string, batch)
	for i := range ids {
		ids[i] = fmt.Sprintf("%016x", i)
	}
	var leaseErr error
	m["sweep.lease_cycle_us"] = kernelNs(ks.budget, batch, func() {
		for _, id := range ids {
			leases.Add(id)
			got, token, _ := leases.Acquire(now, "bench")
			if err := leases.Renew(got, token, now); err != nil {
				leaseErr = err
			}
			leases.Remove(got)
		}
	}) / 1e3
	return leaseErr
}

// pollKernel polls one traffic source on the workload's network at the
// workload's load until the budget is spent and returns ns per generated
// message (Poll calls that generate nothing are part of that cost, as they
// are in the engine).
func pollKernel(ks kernelShape, t topology.Network, spec string) (float64, error) {
	c := ks.cfg
	fs := fault.NewSet(t)
	pattern, err := traffic.NewPattern(c.PatternSpec(), t, fs)
	if err != nil {
		return 0, err
	}
	pool := message.NewPool(t.N(), false)
	src, err := traffic.NewSource(spec, traffic.Env{
		T: t, F: fs, Sources: fs.HealthyNodes(), Lambda: c.Lambda, MsgLen: c.MsgLen,
		Mode: message.Deterministic, Pattern: pattern, R: rng.New(c.Seed).Split(1), Pool: pool,
	})
	if err != nil {
		return 0, err
	}
	msgs := 0
	t0 := time.Now()
	for now := int64(0); msgs == 0 || time.Since(t0) < ks.budget; now++ {
		for _, msg := range src.Poll(now) {
			ref, _ := msg.Ref()
			pool.Free(ref)
			msgs++
		}
	}
	return float64(time.Since(t0)) / float64(msgs), nil
}

// walkKernel drives routing.Walk between random healthy pairs of the
// workload's network under its algorithm and returns ns per hop.
func walkKernel(ks kernelShape, t topology.Network, spec core.FaultSpec) (float64, error) {
	c := ks.cfg
	fs, err := core.BuildFaults(t, spec, c.Seed)
	if err != nil {
		return 0, err
	}
	alg, err := routing.New(c.AlgorithmName(), t, fs, c.V)
	if err != nil {
		return 0, err
	}
	healthy := fs.HealthyNodes()
	pick := rng.New(c.Seed).Split(7)
	pool := message.NewPool(t.N(), false)
	hops := 0
	t0 := time.Now()
	for id := uint64(0); hops == 0 || time.Since(t0) < ks.budget; id++ {
		src, dst := healthy[pick.Intn(len(healthy))], healthy[pick.Intn(len(healthy))]
		if src == dst {
			continue
		}
		msg := pool.New(id, src, dst, c.MsgLen, alg.BaseMode(), 0)
		hops += routing.Walk(alg, msg, 100_000).Hops
		ref, _ := msg.Ref()
		pool.Free(ref)
	}
	return float64(time.Since(t0)) / float64(hops), nil
}
