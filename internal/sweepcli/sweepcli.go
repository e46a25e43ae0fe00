// Package sweepcli is the one sweep front door of the command-line front
// ends: the -workers/-checkpoint/-shard/-merge/-coordinator flag block,
// the rules for combining those flags, the merge-then-run ordering, and
// the choice between an in-process sweep.Run and a coordinator fleet
// (coord.Client.RunPlan). swsim and figures both register the block,
// validate it for what the invocation is about to do (Mode), and get back
// a single func(sweep.Plan) that every sweep they run goes through.
//
// The order is part of the contract: Validate touches nothing on disk, so
// a rejected command line has no side effects; only Open, called after
// the front end has validated everything else too, merges shard journals
// into the checkpoint.
package sweepcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/sweep"
)

// Mode is what the invocation will run behind the door; it decides which
// of the flags are meaningful.
type Mode int

const (
	// Grid runs plans of independent points: every flag applies.
	Grid Mode = iota
	// Searches runs several independent saturation searches (figures -fig
	// sat): whole searches shard and checkpoint, but probes are
	// sequential, so the fleet cannot serve them.
	Searches
	// Search runs one saturation search (swsim -find-sat): resumable, but
	// neither shardable nor fleet-served.
	Search
	// Point runs no sweep at all (swsim's single-point mode): only the
	// -merge-and-exit flow is meaningful.
	Point
)

// Flags holds the parsed values of the sweep flag block.
type Flags struct {
	workers                               int
	checkpoint, shard, merge, coordinator string
}

// Register defines the sweep flag block on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "JSONL checkpoint journal: completed points are skipped on re-run")
	fs.StringVar(&f.shard, "shard", "", "run only shard i of n ('i/n') of each sweep; journals merge via -merge")
	fs.StringVar(&f.merge, "merge", "", "comma-separated shard journals to merge into -checkpoint before running")
	fs.StringVar(&f.coordinator, "coordinator", "", "submit grid sweeps to a coordinator fleet (swsim -serve / -worker) instead of simulating locally ('url=http://host:8080' or a bare URL)")
	return f
}

// Door is a validated flag block.
type Door struct {
	// Local holds the options of in-process runs. Saturation searches
	// take them directly (sweep.SaturationOptions.Run); grid sweeps go
	// through the function Open returns.
	Local sweep.Options
	// Fleet reports that grid sweeps are served by a coordinator.
	Fleet bool
	// MergeOnly reports the merge-and-exit flow (-merge in Point mode):
	// once Open has merged there is nothing left to run.
	MergeOnly bool

	prog, url string
	merge     []string
}

// Validate checks the flag combination for mode and has no side effects.
// prog prefixes the progress notes written to log; an error is a usage
// error (exit 2).
func (f *Flags) Validate(prog string, mode Mode, log io.Writer) (*Door, error) {
	shard, err := sweep.ParseShard(f.shard)
	if err != nil {
		return nil, err
	}
	sharded, journalled := shard.Count > 1, f.checkpoint != "" || f.merge != ""
	switch {
	case f.merge != "" && f.checkpoint == "":
		return nil, errors.New("-merge requires -checkpoint (the journal to merge into)")
	case sharded && f.checkpoint == "":
		return nil, errors.New("-shard requires -checkpoint (without a journal the shard's results cannot be merged)")
	case f.coordinator != "" && mode != Grid:
		return nil, errors.New("-coordinator applies to -sweep mode only (the fleet runs grid points)")
	case f.coordinator != "" && (journalled || sharded):
		return nil, errors.New("-coordinator conflicts with -checkpoint/-shard/-merge (the coordinator owns the journal; its workers are the shards)")
	case mode == Search && sharded:
		return nil, errors.New("-find-sat cannot be sharded (each probe depends on the previous one); run it unsharded with -checkpoint to make it resumable")
	// Sweep-only flags given without a sweep mode would be silently
	// ignored by the single-point path — reject them instead, so a
	// forgotten -sweep cannot burn a shard's compute without journalling
	// anything. (-checkpoint without -sweep is still valid alongside
	// -merge: that is the merge-and-exit flow.)
	case mode == Point && sharded:
		return nil, errors.New("-shard applies to -sweep mode only (did you forget -sweep?)")
	case mode == Point && f.checkpoint != "" && f.merge == "":
		return nil, errors.New("-checkpoint applies to -sweep, -find-sat and -merge modes only (did you forget -sweep?)")
	}
	d := &Door{
		Local:     sweep.Options{Workers: f.workers, Checkpoint: f.checkpoint, Shard: shard, Log: log},
		Fleet:     f.coordinator != "",
		MergeOnly: mode == Point && f.merge != "",
		prog:      prog,
	}
	if f.merge != "" {
		d.merge = strings.Split(f.merge, ",")
	}
	if d.Fleet {
		// A bare URL, or a url= spec for symmetry with -serve/-worker.
		if d.url = strings.TrimPrefix(f.coordinator, "url="); d.url == "" {
			return nil, errors.New("-coordinator: empty url")
		}
	}
	return d, nil
}

// Open merges the -merge journals into the checkpoint (if asked) and
// returns the function every grid sweep of this invocation runs through:
// the fleet when -coordinator is set — point identity is the content
// digest, so results are byte-identical either way and a repeat run is
// pure cache — and sweep.Run with the local options otherwise.
// SIGTERM/SIGINT abort a fleet wait (the fleet keeps computing; a re-run
// picks the results up from the cache). An error is a run-time failure
// (exit 1).
func (d *Door) Open() (func(sweep.Plan) ([]core.PointResult, error), error) {
	if d.merge != nil {
		total, err := sweep.MergeJournals(d.Local.Checkpoint, d.merge...)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(d.Local.Log, "%s: merged into %s (%d distinct points)\n", d.prog, d.Local.Checkpoint, total)
	}
	if !d.Fleet {
		return func(plan sweep.Plan) ([]core.PointResult, error) { return sweep.Run(plan, d.Local) }, nil
	}
	client := coord.NewClient(d.url)
	client.Log = d.Local.Log
	return func(plan sweep.Plan) ([]core.PointResult, error) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return client.RunPlan(ctx, plan)
	}, nil
}
