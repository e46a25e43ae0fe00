package sweepcli

import (
	"flag"
	"io"
	"strings"
	"testing"
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
		badWorkers    = "bad -workers -3"
		gridOnly      = "-coordinator applies to -sweep mode only (the fleet runs grid points)"
		fleetConflict = "-coordinator conflicts with -checkpoint"
		ckptNoSweep   = "-checkpoint applies to -sweep and -find-sat modes only (did you forget -sweep?)"
	)
	all := []Mode{Grid, Search, Point}
	for _, tc := range []struct {
		args   string
		modes  []Mode
		reject string
	}{
		{"", all, ""},
		{"-workers 3", all, ""},
		{"-workers 0", all, ""},
		{"-workers -3", all, badWorkers},
		{"-workers -3 -coordinator http://h:1", all, badWorkers},

		{"-checkpoint j", []Mode{Grid, Search}, ""},
		{"-checkpoint j", []Mode{Point}, ckptNoSweep},

		{"-coordinator http://h:1", []Mode{Grid}, ""},
		{"-coordinator url=http://h:1", []Mode{Grid}, ""},
		{"-coordinator url=", []Mode{Grid}, "-coordinator: empty url"},
		{"-coordinator http://h:1", []Mode{Search, Point}, gridOnly},
		{"-coordinator http://h:1 -checkpoint j", []Mode{Grid}, fleetConflict},
		{"-coordinator http://h:1 -checkpoint j", []Mode{Search, Point}, gridOnly},
	} {
		for _, mode := range tc.modes {
			d, run, err := parse(t, strings.Fields(tc.args)...).Validate(mode, io.Discard)
			switch {
			case tc.reject == "" && err != nil:
				t.Errorf("mode %d %q: rejected: %v", mode, tc.args, err)
			case tc.reject != "" && (err == nil || !strings.Contains(err.Error(), tc.reject)):
				t.Errorf("mode %d %q: got %v, want an error containing %q", mode, tc.args, err, tc.reject)
			case err == nil && run == nil:
				t.Errorf("mode %d %q: accepted without a run function", mode, tc.args)
			case err == nil && d.Fleet != strings.Contains(tc.args, "-coordinator"):
				t.Errorf("mode %d %q: Fleet = %v", mode, tc.args, d.Fleet)
			}
		}
	}
}
