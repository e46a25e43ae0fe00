package sweepcli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

func parse(t *testing.T, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

// TestValidateMatrix is the accept/reject matrix of the sweep flag block:
// every rule either CLI enforced before they shared this front door,
// swsim's mode-specific ones included. reject is a fragment of the usage
// error; empty means the combination is accepted.
func TestValidateMatrix(t *testing.T) {
	const (
		needsCkptMerge = "-merge requires -checkpoint"
		needsCkptShard = "-shard requires -checkpoint"
		gridOnly       = "-coordinator applies to -sweep mode only (the fleet runs grid points)"
		fleetConflict  = "-coordinator conflicts with -checkpoint/-shard/-merge"
		noShardSearch  = "-find-sat cannot be sharded"
		shardNoSweep   = "-shard applies to -sweep mode only (did you forget -sweep?)"
		ckptNoSweep    = "-checkpoint applies to -sweep, -find-sat and -merge modes only (did you forget -sweep?)"
	)
	all := []Mode{Grid, Searches, Search, Point}
	for _, tc := range []struct {
		args   string
		modes  []Mode
		reject string
	}{
		{"", all, ""},
		{"-workers 3", all, ""},
		{"-shard 2/2", all, "bad shard"},
		{"-shard x", all, "bad shard"},
		{"-merge a.jsonl", all, needsCkptMerge},
		{"-shard 0/2", all, needsCkptShard},
		{"-shard 0/2 -merge a.jsonl", all, needsCkptMerge},

		{"-checkpoint j", []Mode{Grid, Searches, Search}, ""},
		{"-checkpoint j", []Mode{Point}, ckptNoSweep},
		{"-checkpoint j -merge a.jsonl,b.jsonl", all, ""}, // Point: merge-and-exit
		{"-checkpoint j -shard 1/2", []Mode{Grid, Searches}, ""},
		{"-checkpoint j -shard 1/2", []Mode{Search}, noShardSearch},
		{"-checkpoint j -shard 1/2", []Mode{Point}, shardNoSweep},
		{"-checkpoint j -shard 1/2 -merge a.jsonl", []Mode{Point}, shardNoSweep},

		{"-coordinator http://h:1", []Mode{Grid}, ""},
		{"-coordinator url=http://h:1", []Mode{Grid}, ""},
		{"-coordinator url=", []Mode{Grid}, "-coordinator: empty url"},
		{"-coordinator http://h:1", []Mode{Searches, Search, Point}, gridOnly},
		{"-coordinator http://h:1 -checkpoint j", []Mode{Grid}, fleetConflict},
		{"-coordinator http://h:1 -checkpoint j -shard 0/2", []Mode{Grid}, fleetConflict},
		{"-coordinator http://h:1 -checkpoint j -merge a.jsonl", []Mode{Grid}, fleetConflict},
		{"-coordinator http://h:1 -checkpoint j", []Mode{Searches, Search, Point}, gridOnly},
	} {
		for _, mode := range tc.modes {
			d, err := parse(t, strings.Fields(tc.args)...).Validate("prog", mode, io.Discard)
			switch {
			case tc.reject == "" && err != nil:
				t.Errorf("mode %d %q: rejected: %v", mode, tc.args, err)
			case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)):
				t.Errorf("mode %d %q: got %v, want an error containing %q", mode, tc.args, err, tc.reject)
			case err == nil && d.MergeOnly != (mode == Point && strings.Contains(tc.args, "-merge")):
				t.Errorf("mode %d %q: MergeOnly = %v", mode, tc.args, d.MergeOnly)
			case err == nil && d.Fleet != strings.Contains(tc.args, "-coordinator"):
				t.Errorf("mode %d %q: Fleet = %v", mode, tc.args, d.Fleet)
			}
		}
	}
}

// TestValidateThenMerge pins the ordering contract: Validate has no side
// effects (a rejected or merely validated command line leaves the
// checkpoint absent), and Open merges before the returned function runs
// anything — the merged journal then serves the whole plan.
func TestValidateThenMerge(t *testing.T) {
	dir := t.TempDir()
	plan := sweep.Plan{Name: "p", Points: []core.Point{
		{Label: "a", Config: core.DefaultConfig(4, 2, 0.001)},
		{Label: "b", Config: core.DefaultConfig(4, 2, 0.002)},
	}}
	shard := filepath.Join(dir, "s.jsonl")
	j, err := sweep.OpenJournal(shard)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range plan.IDs() {
		rec := sweep.NewRecord(id, core.PointResult{Point: plan.Points[i], Results: metrics.Results{Delivered: uint64(i + 1)}})
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	ckpt := filepath.Join(dir, "all.jsonl")
	if _, err := parse(t, "-checkpoint", ckpt, "-merge", shard, "-coordinator", "http://h:1").Validate("prog", Grid, io.Discard); err == nil {
		t.Fatal("conflicting flags accepted")
	}
	var log bytes.Buffer
	door, err := parse(t, "-checkpoint", ckpt, "-merge", shard).Validate("prog", Grid, &log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Fatalf("Validate touched the checkpoint (stat err %v)", err)
	}
	run, err := door.Open()
	if err != nil {
		t.Fatal(err)
	}
	if want := "prog: merged into " + ckpt + " (2 distinct points)\n"; log.String() != want {
		t.Errorf("merge note %q, want %q", log.String(), want)
	}
	res, err := run(plan)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil || r.Results.Delivered != uint64(i+1) {
			t.Errorf("point %d not served from the merged journal: %+v", i, r)
		}
	}

	if _, err := parse(t, "-checkpoint", ckpt, "-merge", filepath.Join(dir, "missing.jsonl")).Validate("prog", Grid, io.Discard); err != nil {
		t.Fatalf("a missing shard journal is a run-time failure, not a usage error: %v", err)
	}
}
