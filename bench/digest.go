package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"

	"repro/internal/metrics"
)

// goldenFile holds the seed-1 digest of every workload, recorded with
// -update-golden. The binary runs with bench/ as its working directory.
const goldenFile = "golden.json"

// goldenKept is how many leading points of a plan keep their full
// statistics in golden.json, so that a mismatch can name the differing
// field; later points keep only their short digest (fleet-tiny has
// hundreds of points and would otherwise dominate the repository).
const goldenKept = 40

// digestEntry is the canonical form of one point's simulated statistics:
// every exported Results field, plus the per-window mean latency, which
// lives behind an unexported accumulator that encoding/json skips.
type digestEntry struct {
	Results           metrics.Results
	WindowMeanLatency []float64 `json:",omitempty"`
}

func canonical(r metrics.Results) digestEntry {
	e := digestEntry{Results: r}
	for _, w := range r.Windows {
		e.WindowMeanLatency = append(e.WindowMeanLatency, w.MeanLatency())
	}
	return e
}

// workDigest is the simulated-statistics fingerprint of one workload run.
type workDigest struct {
	// Digest is SHA-256 over the canonical JSON of every point's Results
	// in plan order. The engine is deterministic, so it is a function of
	// the workload's inputs alone: a simulator-speed change that moves it
	// is wrong by construction.
	Digest string `json:"digest"`
	// Points are the per-point digests (first 8 bytes), in plan order.
	Points []string `json:"points"`
	// Kept are the canonical statistics of the first goldenKept points.
	Kept []digestEntry `json:"kept"`
}

func digestResults(rs []metrics.Results) (workDigest, error) {
	var d workDigest
	all := sha256.New()
	for i, r := range rs {
		e := canonical(r)
		b, err := json.Marshal(e)
		if err != nil {
			return workDigest{}, fmt.Errorf("digest: point %d: %w", i, err)
		}
		all.Write(b)
		sum := sha256.Sum256(b)
		d.Points = append(d.Points, hex.EncodeToString(sum[:8]))
		if i < goldenKept {
			d.Kept = append(d.Kept, e)
		}
	}
	d.Digest = hex.EncodeToString(all.Sum(nil))
	return d, nil
}

// difference describes the first point — and, when its statistics are
// kept, the first Results field in struct order — on which two digests
// disagree; empty when they agree.
func (d workDigest) difference(o workDigest) string {
	if d.Digest == o.Digest {
		return ""
	}
	if len(d.Points) != len(o.Points) {
		return fmt.Sprintf("point count %d vs %d", len(d.Points), len(o.Points))
	}
	for i := range d.Points {
		if d.Points[i] == o.Points[i] {
			continue
		}
		if i >= len(d.Kept) || i >= len(o.Kept) {
			return fmt.Sprintf("point %d differs (statistics kept only for the first %d points)", i, goldenKept)
		}
		va, vb := reflect.ValueOf(d.Kept[i].Results), reflect.ValueOf(o.Kept[i].Results)
		for f := 0; f < va.NumField(); f++ {
			if !reflect.DeepEqual(va.Field(f).Interface(), vb.Field(f).Interface()) {
				return fmt.Sprintf("point %d: Results.%s = %v vs %v", i,
					va.Type().Field(f).Name, va.Field(f).Interface(), vb.Field(f).Interface())
			}
		}
		return fmt.Sprintf("point %d: window mean latencies %v vs %v", i,
			d.Kept[i].WindowMeanLatency, o.Kept[i].WindowMeanLatency)
	}
	return "digests differ but every point digest agrees"
}

// golden is the content of golden.json: the seed-1 digest per workload.
type golden map[string]workDigest

func readGolden() (golden, error) {
	b, err := os.ReadFile(goldenFile)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	g := golden{}
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden: %s: %w", goldenFile, err)
	}
	return g, nil
}

// updateGolden records one workload's seed-1 digest, keeping the others.
func updateGolden(workload string, d workDigest) error {
	g, err := readGolden()
	if errors.Is(err, fs.ErrNotExist) {
		g, err = golden{}, nil
	}
	if err != nil {
		return err
	}
	g[workload] = d
	// One workload per line: the entries are long, and a re-recorded
	// digest should show as one changed line.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for _, w := range workloads {
		entry, ok := g[w.name]
		if !ok {
			continue
		}
		b, err := json.Marshal(entry)
		if err != nil {
			return fmt.Errorf("golden: %w", err)
		}
		if buf.Len() > 2 {
			buf.WriteString(",\n")
		}
		fmt.Fprintf(&buf, "%q: %s", w.name, b)
	}
	buf.WriteString("\n}\n")
	if err := os.WriteFile(goldenFile, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("golden: %w", err)
	}
	return nil
}

// checkGolden compares a seed-1 digest with the recorded one; the error
// names the first differing point and field.
func checkGolden(workload string, d workDigest) error {
	g, err := readGolden()
	if err != nil {
		return err
	}
	want, ok := g[workload]
	if !ok {
		return fmt.Errorf("golden: no digest recorded for %s (run with -update-golden)", workload)
	}
	if diff := d.difference(want); diff != "" {
		return fmt.Errorf("golden: %s digest %.12s, recorded %.12s: %s", workload, d.Digest, want.Digest, diff)
	}
	return nil
}
