package traffic

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/topology"
	"repro/internal/trace"
)

// pollTotal drives a source over a horizon and counts messages, also
// checking the per-message invariants every source must uphold.
func pollTotal(t *testing.T, src Source, horizon int64) (total int, bySrc map[topology.NodeID]int) {
	t.Helper()
	bySrc = map[topology.NodeID]int{}
	last := int64(0)
	for now := int64(1); now <= horizon; now++ {
		for _, m := range src.Poll(now) {
			if m.CreatedAt != now {
				t.Fatalf("message stamped %d at cycle %d", m.CreatedAt, now)
			}
			if m.CreatedAt < last {
				t.Fatal("non-monotone creation times")
			}
			last = m.CreatedAt
			if m.Src == m.Dst {
				t.Fatal("self-addressed message")
			}
			total++
			bySrc[m.Src]++
		}
	}
	return total, bySrc
}

func TestIntervalRateIsExact(t *testing.T) {
	env := testEnv(t, 10)
	src, err := NewSource("interval:period=125", env)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 25_000
	total, bySrc := pollTotal(t, src, horizon)
	// Every node emits exactly horizon/period messages (phases <= period).
	want := horizon / 125 * len(env.Sources)
	if total < want-len(env.Sources) || total > want+len(env.Sources) {
		t.Fatalf("interval generated %d messages, want ~%d", total, want)
	}
	for id, n := range bySrc {
		if n < horizon/125-1 || n > horizon/125+1 {
			t.Fatalf("node %d emitted %d messages, want %d", id, n, horizon/125)
		}
	}
}

func TestIntervalDefaultsPeriodFromLambda(t *testing.T) {
	env := testEnv(t, 11) // Lambda = 0.005 -> period 200
	src, err := NewSource("interval", env)
	if err != nil {
		t.Fatal(err)
	}
	if src.Name() != "interval(200)" {
		t.Fatalf("derived source name %q, want interval(200)", src.Name())
	}
}

func TestMMPPConvergesToConfiguredMean(t *testing.T) {
	env := testEnv(t, 12)
	// Explicit rate: long-run per-node rate = rate*on/(on+off) = 0.02/5.
	src, err := NewSource("burst:on=50,off=200,rate=0.02", env)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 150_000
	total, _ := pollTotal(t, src, horizon)
	want := 0.02 * 50 / 250 * float64(len(env.Sources)) * horizon
	if math.Abs(float64(total)-want)/want > 0.05 {
		t.Fatalf("mmpp generated %d messages, want ~%.0f (±5%%)", total, want)
	}
}

func TestMMPPDefaultRateMatchesOfferedLoad(t *testing.T) {
	env := testEnv(t, 13) // Lambda = 0.005
	src, err := NewSource("burst:on=50,off=200", env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src.Name(), "rate=0.025") {
		t.Fatalf("derived ON rate not λ(on+off)/on: %s", src.Name())
	}
	const horizon = 150_000
	total, _ := pollTotal(t, src, horizon)
	want := env.Lambda * float64(len(env.Sources)) * horizon
	if math.Abs(float64(total)-want)/want > 0.05 {
		t.Fatalf("mmpp at default rate generated %d, want ~%.0f (±5%%, equal offered load)", total, want)
	}
}

func TestMMPPIsBurstier(t *testing.T) {
	// Same offered load; the MMPP arrival counts must have a higher
	// variance-to-mean ratio than Poisson (index of dispersion > 1). The
	// count window must exceed the phase durations — over one cycle any
	// rare process looks Bernoulli — so count in 500-cycle bins.
	dispersion := func(spec string, seed uint64) float64 {
		env := testEnv(t, seed)
		src, err := NewSource(spec, env)
		if err != nil {
			t.Fatal(err)
		}
		const horizon, window = 60_000, 500
		counts := make([]float64, horizon/window)
		for now := int64(1); now <= horizon; now++ {
			counts[(now-1)/window] += float64(len(src.Poll(now)))
		}
		var mean, m2 float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			m2 += (c - mean) * (c - mean)
		}
		return m2 / float64(len(counts)) / mean
	}
	dPoisson := dispersion("poisson", 14)
	dBurst := dispersion("burst:on=50,off=450", 14)
	if dBurst < 1.5*dPoisson {
		t.Fatalf("burst dispersion %.2f not clearly above poisson %.2f", dBurst, dPoisson)
	}
}

func TestNodeMapPerNodeRates(t *testing.T) {
	env := testEnv(t, 15)
	// Node 0 hot, node 1 silent, everyone else at the default.
	src, err := NewSource("nodemap:default=0.002,0=0.02,1=0", env)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 120_000
	_, bySrc := pollTotal(t, src, horizon)
	if n := bySrc[1]; n != 0 {
		t.Fatalf("silenced node emitted %d messages", n)
	}
	checks := []struct {
		node topology.NodeID
		want float64
	}{{0, 0.02 * horizon}, {5, 0.002 * horizon}}
	for _, c := range checks {
		got := float64(bySrc[c.node])
		if math.Abs(got-c.want)/c.want > 0.15 {
			t.Fatalf("node %d emitted %g messages, want ~%g (±15%%)", c.node, got, c.want)
		}
	}
}

func TestNodeMapRejectsFaultyGenerator(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(3)
	env := testEnv(t, 16)
	env.F = fs
	env.Sources = fs.HealthyNodes()
	if _, err := NewSource("nodemap:default=0.001,3=0.01", env); err == nil {
		t.Fatal("positive rate on a faulty node accepted")
	}
	// Rate 0 on a faulty node is fine (it is silent anyway).
	if _, err := NewSource("nodemap:default=0.001,3=0", env); err != nil {
		t.Fatalf("zero rate on faulty node rejected: %v", err)
	}
}

func TestReplayEmitsRecordsAtTheirCycles(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	w := &trace.Workload{}
	w.Append(trace.WorkloadRecord{Cycle: 7, Src: 3, Dst: 9, Len: 4})
	w.Append(trace.WorkloadRecord{Cycle: 2, Src: 1, Dst: 2, Len: 8})
	w.Append(trace.WorkloadRecord{Cycle: 2, Src: 5, Dst: 6, Len: 8})
	rp, err := NewReplay(tor, fs, w, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []trace.WorkloadRecord
	for now := int64(1); now <= 10; now++ {
		for _, m := range rp.Poll(now) {
			if m.CreatedAt != now {
				t.Fatalf("replayed message stamped %d at %d", m.CreatedAt, now)
			}
			got = append(got, trace.WorkloadRecord{Cycle: now, Src: m.Src, Dst: m.Dst, Len: m.Len})
		}
	}
	want := []trace.WorkloadRecord{
		{Cycle: 2, Src: 1, Dst: 2, Len: 8},
		{Cycle: 2, Src: 5, Dst: 6, Len: 8},
		{Cycle: 7, Src: 3, Dst: 9, Len: 4},
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if rp.Remaining() != 0 {
		t.Fatalf("%d records left", rp.Remaining())
	}
}

func TestReplayValidatesRecords(t *testing.T) {
	tor := topology.New(4, 2)
	fs := fault.NewSet(tor)
	fs.MarkNode(5)
	for _, rec := range []trace.WorkloadRecord{
		{Cycle: -1, Src: 0, Dst: 1, Len: 4},                 // negative cycle
		{Cycle: 1, Src: 0, Dst: 99, Len: 4},                 // out of range
		{Cycle: 1, Src: 2, Dst: 2, Len: 4},                  // self-addressed
		{Cycle: 1, Src: 0, Dst: 1, Len: 0},                  // zero length
		{Cycle: 1, Src: 0, Dst: 1, Len: message.MaxLen + 1}, // flit 1<<15 would read as a head
		{Cycle: 1, Src: 5, Dst: 1, Len: 4},                  // faulty endpoint
	} {
		w := &trace.Workload{}
		w.Append(rec)
		if _, err := NewReplay(tor, fs, w, 0); err == nil {
			t.Errorf("record %+v accepted", rec)
		}
	}
	if _, err := NewReplay(tor, fs, &trace.Workload{}, 0); err == nil {
		t.Error("empty workload accepted")
	}
}

// TestReplayFileErrorNamesFileAndLine: a bad record in a replay file is
// reported as <file>: line N.
func TestReplayFileErrorNamesFileAndLine(t *testing.T) {
	file := filepath.Join(t.TempDir(), "w.csv")
	if err := os.WriteFile(file, []byte("# cycle,src,dst,len\n1,0,5,4\n2,0,5,32768\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewSource("replay:file="+file, testEnv(t, 1))
	if err == nil || !strings.Contains(err.Error(), file+": line 3: len") {
		t.Fatalf("got %v, want an error naming %s: line 3", err, file)
	}
}

func TestCaptureRoundTripsThroughWorkloadFormat(t *testing.T) {
	env := testEnv(t, 17)
	inner, err := NewSource("poisson", env)
	if err != nil {
		t.Fatal(err)
	}
	var w trace.Workload
	cap := NewCapture(inner, &w)
	var emitted int
	for now := int64(1); now <= 4000; now++ {
		emitted += len(cap.Poll(now))
	}
	if emitted == 0 || w.Len() != emitted {
		t.Fatalf("captured %d records for %d messages", w.Len(), emitted)
	}
	var b strings.Builder
	if err := w.Write(&b); err != nil {
		t.Fatal(err)
	}
	parsed, err := trace.ParseWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Len() != w.Len() {
		t.Fatalf("parsed %d records, wrote %d", parsed.Len(), w.Len())
	}
	rp, err := NewReplay(env.T, env.F, parsed, env.Mode)
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for now := int64(1); now <= 4000; now++ {
		replayed += len(rp.Poll(now))
	}
	if replayed != emitted {
		t.Fatalf("replayed %d of %d captured messages", replayed, emitted)
	}
}

func TestSourceNamesAreInformative(t *testing.T) {
	env := testEnv(t, 18)
	for spec, prefix := range map[string]string{
		"poisson":                      "poisson",
		"interval:period=100":          "interval(100)",
		"burst:on=10,off=20,rate=0.05": "burst(on=10,off=20,rate=0.05)",
		"nodemap:default=0.001":        "nodemap",
	} {
		src, err := NewSource(spec, env)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if !strings.HasPrefix(src.Name(), prefix) {
			t.Errorf("%s: name %q, want prefix %q", spec, src.Name(), prefix)
		}
	}
}

func TestSourceMeanRates(t *testing.T) {
	env := testEnv(t, 21) // 64 nodes, Lambda 0.005
	nodes := float64(len(env.Sources))
	for spec, want := range map[string]float64{
		"poisson":                       0.005 * 64,
		"poisson:rate=0.01":             0.01 * 64,
		"interval:period=100":           64.0 / 100,
		"burst:on=50,off=200":           0.005 * 64, // rate defaults to equal offered load
		"burst:on=10,off=30,rate=0.02":  0.02 * 10 / 40 * 64,
		"nodemap:default=0.001,12=0.01": 63*0.001 + 0.01,
	} {
		src, err := NewSource(spec, env)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		mr, ok := src.(MeanRater)
		if !ok {
			t.Fatalf("%s: source does not report a mean rate", spec)
		}
		if got := mr.MeanRate(); math.Abs(got-want) > 1e-9*nodes {
			t.Errorf("%s: MeanRate() = %g, want %g", spec, got, want)
		}
	}
}

func TestReplayMeanRateCoversSpan(t *testing.T) {
	env := testEnv(t, 22)
	w := &trace.Workload{Records: []trace.WorkloadRecord{
		{Cycle: 10, Src: 0, Dst: 1, Len: 8},
		{Cycle: 500, Src: 2, Dst: 3, Len: 8},
		{Cycle: 1000, Src: 4, Dst: 5, Len: 8},
	}}
	rp, err := NewReplay(env.T, env.F, w, env.Mode)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.MeanRate(), 3.0/1000; math.Abs(got-want) > 1e-12 {
		t.Errorf("MeanRate() = %g, want %g", got, want)
	}
}
