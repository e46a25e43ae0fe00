// Package metrics collects the performance measures the paper reports:
// mean message latency (generation to last-flit ejection, §5.2), network
// throughput (delivered messages per node per cycle, Fig. 6), and the
// "messages queued" absorption counter (Fig. 7).
//
// Warm-up follows the paper's protocol: "Statistics gathering was inhibited
// for the first 10,000 messages to avoid distortions due to the startup
// transient." A message participates in statistics iff its generation index
// is at or past the warm-up count.
package metrics

import (
	"fmt"

	"repro/internal/message"
)

// StopKind classifies software-layer stops for the queued counter.
type StopKind uint8

const (
	// StopFault is an absorption because the outgoing channel leads to a
	// fault (the event Fig. 7 counts).
	StopFault StopKind = iota
	// StopVia is a scheduled stop at an intermediate destination installed
	// by the rerouting tables — software overhead caused by earlier faults.
	StopVia
)

// Collector accumulates one simulation run's statistics. It is used by a
// single-goroutine engine; Results snapshots are value copies.
type Collector struct {
	warmup uint64

	latency    Welford
	sample     Sample
	generated  uint64
	delivered  uint64
	measuredAt int64 // cycle the measurement window opened (first measured generation)

	queuedFault uint64
	queuedVia   uint64
	dropped     uint64

	// Chaos state for dynamic-fault runs (see chaos.go); winLen == 0 means
	// windows are disarmed and every chaos path short-circuits.
	winLen      int64
	cur         Window
	closed      []Window
	transitions uint64
	reinjected  uint64
	lost        uint64
	failCycles  []int64
}

// NewCollector builds a collector that ignores the first warmup generated
// messages.
func NewCollector(warmup int) *Collector {
	if warmup < 0 {
		warmup = 0
	}
	return &Collector{warmup: uint64(warmup), measuredAt: -1}
}

// Measured reports whether message m participates in statistics.
func (c *Collector) Measured(m *message.Message) bool { return m.ID >= c.warmup }

// Generated records a message creation.
func (c *Collector) Generated(m *message.Message) {
	c.generated++
	if c.Measured(m) {
		if c.measuredAt < 0 {
			c.measuredAt = m.CreatedAt
		}
		c.windowGenerated(m.CreatedAt)
	}
}

// Delivered records final delivery at cycle now (the tail flit reached the
// destination PE).
func (c *Collector) Delivered(m *message.Message, now int64) {
	m.DeliveredAt = now
	if !c.Measured(m) {
		return
	}
	c.delivered++
	lat := float64(now - m.CreatedAt)
	c.latency.Add(lat)
	c.sample.Add(lat)
	c.windowDelivered(now, lat)
}

// Stop records a software-layer stop (absorption or via arrival).
func (c *Collector) Stop(m *message.Message, kind StopKind) {
	if !c.Measured(m) {
		return
	}
	switch kind {
	case StopFault:
		c.queuedFault++
	case StopVia:
		c.queuedVia++
	}
}

// Dropped records an undeliverable message (possible only for fault
// patterns that disconnect the destination, which the injectors exclude).
func (c *Collector) Dropped(*message.Message) { c.dropped++ }

// DeliveredCount returns the number of measured deliveries so far.
func (c *Collector) DeliveredCount() uint64 { return c.delivered }

// GeneratedCount returns the number of generated messages (including
// warm-up).
func (c *Collector) GeneratedCount() uint64 { return c.generated }

// Results is an immutable summary of one run.
type Results struct {
	// MeanLatency is the mean message latency in cycles: generation to last
	// data flit at the destination PE.
	MeanLatency float64
	// LatencyCI95 is the 95% confidence half-width of MeanLatency.
	LatencyCI95 float64
	// P50/P95/P99 latency quantiles in cycles.
	P50, P95, P99 float64
	// MaxLatency is the worst measured latency.
	MaxLatency float64
	// Throughput is delivered messages per node per cycle over the
	// measurement window (Fig. 6's measure).
	Throughput float64
	// AcceptedFraction is delivered/generated over the measurement window —
	// 1.0 means the network kept up with the offered load.
	AcceptedFraction float64
	// Delivered and Generated are measured-message counts.
	Delivered, Generated uint64
	// QueuedFault counts fault absorptions (Fig. 7's "messages queued");
	// QueuedVia counts scheduled intermediate-destination stops.
	QueuedFault, QueuedVia uint64
	// Dropped counts undeliverable messages (expected 0).
	Dropped uint64
	// Cycles is the measurement window length; Nodes the traffic sources.
	Cycles int64
	Nodes  int
	// Saturated flags a run that hit its cycle limit with a growing backlog
	// instead of delivering its message quota.
	Saturated bool

	// Chaos metrics, populated only for dynamic-fault runs (see chaos.go).
	// Transitions counts applied fault-state changes; Reinjected and Lost
	// count purged in-flight worms by outcome.
	Transitions, Reinjected, Lost uint64
	// Windows holds the per-interval statistics when windows were armed.
	Windows []Window
	// Convergence is the rerouting convergence time of each failure in
	// cycles (-1: unrecovered); MeanConvergence averages the recovered ones
	// (-1 when no failure recovered).
	Convergence     []int64
	MeanConvergence float64
	// MinAvailability is the worst per-window delivered/generated ratio.
	MinAvailability float64
}

// Finalize computes the summary at cycle now for a network of nodes traffic
// sources; saturated marks a run its saturation guard stopped. Generated
// and AcceptedFraction count only messages generated after warm-up.
func (c *Collector) Finalize(now int64, nodes int, saturated bool) Results {
	window := int64(0)
	if c.measuredAt >= 0 && now > c.measuredAt {
		window = now - c.measuredAt
	}
	r := Results{
		MeanLatency: c.latency.Mean(),
		LatencyCI95: c.latency.CI95(),
		P50:         c.sample.Quantile(0.50),
		P95:         c.sample.Quantile(0.95),
		P99:         c.sample.Quantile(0.99),
		MaxLatency:  c.latency.Max(),
		Delivered:   c.delivered,
		QueuedFault: c.queuedFault,
		QueuedVia:   c.queuedVia,
		Dropped:     c.dropped,
		Cycles:      window,
		Nodes:       nodes,
		Saturated:   saturated,
	}
	if c.generated > c.warmup {
		r.Generated = c.generated - c.warmup
	}
	if window > 0 && nodes > 0 {
		r.Throughput = float64(c.delivered) / (float64(window) * float64(nodes))
	}
	if r.Generated > 0 {
		r.AcceptedFraction = float64(r.Delivered) / float64(r.Generated)
	}
	c.finalizeChaos(&r, now)
	return r
}

// QueuedTotal returns total software-queue stops (fault + via), the
// quantity plotted in Fig. 7 under the paper's convention that one message
// absorbed multiple times contributes multiple counts.
func (r Results) QueuedTotal() uint64 { return r.QueuedFault + r.QueuedVia }

// String renders the headline metrics as a one-line summary; saturated
// runs are flagged with a trailing SATURATED marker.
func (r Results) String() string {
	sat := ""
	if r.Saturated {
		sat = " SATURATED"
	}
	chaos := ""
	if cs := r.ChaosString(); cs != "" {
		chaos = " " + cs
	}
	return fmt.Sprintf("latency=%.1f±%.1f p99=%.0f thr=%.5f msg/node/cyc delivered=%d queued=%d%s%s",
		r.MeanLatency, r.LatencyCI95, r.P99, r.Throughput, r.Delivered, r.QueuedTotal(), sat, chaos)
}
