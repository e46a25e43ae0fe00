// Package sweepcli is the one sweep front door of the command-line front
// ends: the -workers/-checkpoint/-coordinator flag block, the rules for
// combining those flags, and the choice between an in-process sweep.Run
// and a coordinator fleet (coord.Client.RunPlan). swsim and figures both
// register the block, validate it for what the invocation is about to do
// (Mode), and get back a single func(sweep.Plan) that every grid sweep
// they run goes through.
//
// Validate touches nothing on disk, so a rejected command line has no
// side effects: the checkpoint is first opened when a plan runs.
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
	// Search runs saturation searches (swsim -find-sat, figures -fig sat):
	// resumable, but each probe depends on the previous one, so the fleet
	// cannot serve them.
	Search
	// Point runs no sweep at all (swsim's single-point mode).
	Point
)

// Flags holds the parsed values of the sweep flag block.
type Flags struct {
	workers                 int
	checkpoint, coordinator string
}

// Register defines the sweep flag block on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.workers, "workers", 0, "sweep worker pool size (0 = GOMAXPROCS)")
	fs.StringVar(&f.checkpoint, "checkpoint", "", "JSONL checkpoint journal: completed points are skipped on re-run")
	fs.StringVar(&f.coordinator, "coordinator", "", "submit grid sweeps to a coordinator fleet (swsim -serve / -worker) instead of simulating locally ('url=http://host:8080' or a bare URL)")
	return f
}

// Door is a validated flag block.
type Door struct {
	// Local holds the options of in-process runs. Saturation searches
	// take them directly (sweep.SaturationOptions.Run); grid sweeps go
	// through the function Validate returns.
	Local sweep.Options
	// Fleet reports that grid sweeps are served by a coordinator.
	Fleet bool
}

// Validate checks the flag combination for mode and returns the door with
// the function every grid sweep of this invocation runs through: the
// fleet when -coordinator is set — point identity is the content digest,
// so results are byte-identical either way and a repeat run is pure
// cache — and sweep.Run with the local options otherwise. SIGTERM/SIGINT
// abort a fleet wait (the fleet keeps computing; a re-run picks the
// results up from the cache). Progress notes go to log; an error is a
// usage error (exit 2).
func (f *Flags) Validate(mode Mode, log io.Writer) (Door, func(sweep.Plan) ([]core.PointResult, error), error) {
	switch {
	case f.workers < 0:
		return Door{}, nil, fmt.Errorf("bad -workers %d (want >= 1, or 0 for GOMAXPROCS)", f.workers)
	case f.coordinator != "" && mode != Grid:
		return Door{}, nil, errors.New("-coordinator applies to -sweep mode only (the fleet runs grid points)")
	case f.coordinator != "" && f.checkpoint != "":
		return Door{}, nil, errors.New("-coordinator conflicts with -checkpoint (the coordinator owns the journal)")
	// Without a sweep mode the single-point path would silently ignore
	// -checkpoint: reject it instead, so a forgotten -sweep is not mistaken
	// for a journalled run.
	case mode == Point && f.checkpoint != "":
		return Door{}, nil, errors.New("-checkpoint applies to -sweep and -find-sat modes only (did you forget -sweep?)")
	}
	d := Door{
		Local: sweep.Options{Workers: f.workers, Checkpoint: f.checkpoint, Log: log},
		Fleet: f.coordinator != "",
	}
	if !d.Fleet {
		return d, func(plan sweep.Plan) ([]core.PointResult, error) { return sweep.Run(plan, d.Local) }, nil
	}
	// A bare URL, or a url= spec for symmetry with -serve/-worker.
	url := strings.TrimPrefix(f.coordinator, "url=")
	if url == "" {
		return Door{}, nil, errors.New("-coordinator: empty url")
	}
	client := coord.NewClient(url)
	client.Log = log
	return d, func(plan sweep.Plan) ([]core.PointResult, error) {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return client.RunPlan(ctx, plan)
	}, nil
}
