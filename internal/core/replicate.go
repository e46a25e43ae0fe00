package core

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Replicated aggregates R independent replications of one configuration
// (different seeds, hence different fault placements, traffic and VC
// choices) into means with 95% confidence half-widths. This is the
// "independent of relative positions of failures" protocol of §5.2 applied
// to any metric.
type Replicated struct {
	// Replications actually completed without error.
	Replications int
	// Saturated counts replications flagged saturated.
	Saturated int
	// MeanLatency/LatencyCI aggregate the per-replication mean latencies.
	MeanLatency, LatencyCI float64
	// Throughput/ThroughputCI aggregate delivered msgs/node/cycle.
	Throughput, ThroughputCI float64
	// QueuedPerMessage/QueuedCI aggregate software stops per measured
	// delivery (scale-free version of Fig. 7's counter).
	QueuedPerMessage, QueuedCI float64
	// Runs holds the individual results for inspection.
	Runs []metrics.Results
}

// RunReplicated executes cfg with seeds seedBase, seedBase+1, ...,
// seedBase+r-1 in parallel and aggregates. It fails only if every
// replication fails; partial errors reduce Replications.
func RunReplicated(cfg Config, r int, seedBase uint64, workers int) (Replicated, error) {
	if r < 1 {
		return Replicated{}, fmt.Errorf("core: need at least 1 replication, got %d", r)
	}
	points := make([]Point, r)
	for i := 0; i < r; i++ {
		c := cfg
		c.Seed = seedBase + uint64(i)
		points[i] = Point{Label: fmt.Sprintf("rep%d", i), Config: c}
	}
	results := RunSweepFunc(points, workers, nil)
	var agg Replicated
	var lat, thr, q stats.Welford
	var firstErr error
	for _, pr := range results {
		if pr.Err != nil {
			if firstErr == nil {
				firstErr = pr.Err
			}
			continue
		}
		agg.Replications++
		agg.Runs = append(agg.Runs, pr.Results)
		if pr.Results.Saturated {
			agg.Saturated++
		}
		lat.Add(pr.Results.MeanLatency)
		thr.Add(pr.Results.Throughput)
		if pr.Results.Delivered > 0 {
			q.Add(float64(pr.Results.QueuedTotal()) / float64(pr.Results.Delivered))
		}
	}
	if agg.Replications == 0 {
		return Replicated{}, fmt.Errorf("core: all %d replications failed: %w", r, firstErr)
	}
	agg.MeanLatency, agg.LatencyCI = lat.Mean(), lat.CI95()
	agg.Throughput, agg.ThroughputCI = thr.Mean(), thr.CI95()
	agg.QueuedPerMessage, agg.QueuedCI = q.Mean(), q.CI95()
	return agg, nil
}

// String renders the aggregate as a one-line summary with confidence
// half-widths, suitable for report rows.
func (r Replicated) String() string {
	return fmt.Sprintf("reps=%d (sat %d) latency=%.1f±%.1f thr=%.5f±%.5f queued/msg=%.3f±%.3f",
		r.Replications, r.Saturated, r.MeanLatency, r.LatencyCI,
		r.Throughput, r.ThroughputCI, r.QueuedPerMessage, r.QueuedCI)
}
