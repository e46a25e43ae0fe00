package traffic

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/rng"
	"repro/internal/topology"
)

// testEnv builds a valid source env over a fault-free 8-ary 2-cube.
func testEnv(t *testing.T, seed uint64) Env {
	t.Helper()
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	return Env{
		T: tor, F: fs, Sources: fs.HealthyNodes(),
		Lambda: 0.005, MsgLen: 16, Mode: message.Deterministic,
		Pattern: NewUniform(fs), R: rng.New(seed),
	}
}

func TestNewSourceRejectsBadSpecs(t *testing.T) {
	env := testEnv(t, 1)
	for _, spec := range []string{
		"warp-drive",            // unknown name
		"poisson:rate=-0.1",     // non-positive rate
		"poisson:rate=abc",      // not a number
		"poisson:rate=nan",      // NaN rate
		"poisson:rtae=0.1",      // misspelt key
		"burst:on=0",            // zero duration
		"burst:off=-5",          // negative duration
		"burst:rate=nan",        // NaN rate
		"burst:wavelength=9",    // unknown key
		"interval:period=0",     // zero period
		"interval:period=0.5",   // fractional period (would truncate to 0)
		"interval:period=200.9", // fractional period (would truncate to 200)
		"nodemap:default=-1",    // negative default
		"nodemap:default=nan",   // NaN default
		"nodemap:12=nan",        // NaN per-node rate
		"nodemap:9999=0.1",      // node out of range
		"nodemap:default=0",     // no node left generating
		"replay:path=/tmp/x",    // wrong key
		"replay",                // missing file
		"replay:file=/nonexistent/definitely-missing.csv",
	} {
		if _, err := NewSource(spec, env); err == nil {
			t.Errorf("source spec %q accepted", spec)
		}
	}
}

func TestNewPatternRejectsBadSpecs(t *testing.T) {
	tor := topology.New(8, 2)
	fs := fault.NewSet(tor)
	for _, spec := range []string{
		"warp-drive",           // unknown name
		"uniform:frac=0.5",     // uniform takes no params
		"transpose:x=1",        // transpose takes no params
		"hotspot:frac=0",       // fraction out of (0,1]
		"hotspot:frac=1.5",     // fraction out of (0,1]
		"hotspot:frac=abc",     // not a number
		"hotspot:frac=nan",     // NaN fraction
		"hotspot:node=-3",      // negative node
		"hotspot:node=64",      // out of range for 8x8
		"hotspot:spot=3",       // unknown key
		"weights:rest=-1",      // negative rest
		"weights:5=-2",         // negative weight
		"weights:5=nan",        // NaN weight
		"weights:5=1,rest=nan", // NaN rest
		"weights:99=1",         // node out of range
		"weights:rest=0",       // no positive weight anywhere
	} {
		if _, err := NewPattern(spec, tor, fs); err == nil {
			t.Errorf("pattern spec %q accepted", spec)
		}
	}
}

func TestValidateSpecsStatically(t *testing.T) {
	// Static validation catches malformed parameters without an env...
	if _, _, err := CheckSourceSpec("burst:on=-1"); err == nil {
		t.Error("static source check missed on=-1")
	}
	if _, _, err := CheckPatternSpec("hotspot:frac=2"); err == nil {
		t.Error("static pattern check missed frac=2")
	}
	if _, _, err := CheckSourceSpec("poisson"); err != nil {
		t.Errorf("poisson rejected statically: %v", err)
	}
	// ...while env-dependent facts (file existence) wait for construction.
	if _, _, err := CheckSourceSpec("replay:file=/nonexistent/x.csv"); err != nil {
		t.Errorf("static replay check should not touch the filesystem: %v", err)
	}
	// The resolved Info carries what only this seam knows: which parameters
	// hold node ids, for callers that know the network size.
	spec, info, err := CheckPatternSpec("hotspot:frac=0.2,node=12")
	if err != nil || spec.Name != "hotspot" || len(info.NodeIDKeys) != 1 || info.NodeIDKeys[0] != "node" {
		t.Errorf("CheckPatternSpec(hotspot) = %+v, %+v, %v", spec, info, err)
	}
}

// TestSpecRoundTrip pins what core.Validate's node-id range checks rely
// on: the static checks hand back the spec as written — alias kept,
// parameters in written order — so it renders back to its input.
func TestSpecRoundTrip(t *testing.T) {
	for _, in := range []string{"poisson", "mmpp:on=50,off=200,rate=0.02", "nodemap:default=0.001,12=0.01"} {
		if spec, _, err := CheckSourceSpec(in); err != nil || spec.String() != in {
			t.Errorf("CheckSourceSpec(%q) = %q, %v", in, spec.String(), err)
		}
	}
	for _, in := range []string{"uniform", "weighted:5=3,rest=1", "hotspot:node=12,frac=0.1"} {
		if spec, _, err := CheckPatternSpec(in); err != nil || spec.String() != in {
			t.Errorf("CheckPatternSpec(%q) = %q, %v", in, spec.String(), err)
		}
	}
}

func TestSourceAliasesResolve(t *testing.T) {
	env := testEnv(t, 2)
	for alias, name := range map[string]string{
		"mmpp:on=10,off=30":                 "burst",
		"bursty":                            "burst",
		"hetero:default=0.001":              "nodemap",
		"deterministic-interval:period=100": "interval",
	} {
		src, err := NewSource(alias, env)
		if err != nil {
			t.Errorf("alias %q: %v", alias, err)
			continue
		}
		if !strings.HasPrefix(src.Name(), name) {
			t.Errorf("alias %q built %q, want %s*", alias, src.Name(), name)
		}
	}
}

func TestRegistryListings(t *testing.T) {
	listed := func(infos []registry.Info) map[string]bool {
		out := map[string]bool{}
		for _, info := range infos {
			if info.Usage == "" || info.Description == "" {
				t.Errorf("%q: empty usage or description", info.Name)
			}
			out[info.Name] = true
		}
		return out
	}
	sources, patterns := listed(Sources()), listed(Patterns())
	for _, w := range []string{"burst", "interval", "nodemap", "pareto", "poisson", "replay"} {
		if !sources[w] {
			t.Errorf("source %q not listed in %v", w, sources)
		}
	}
	for _, w := range []string{"bitrev", "hotspot", "transpose", "uniform", "weights"} {
		if !patterns[w] {
			t.Errorf("pattern %q not listed in %v", w, patterns)
		}
	}
	// Aliases resolve but are not listed; the two tables do not leak into
	// each other.
	if sources["mmpp"] || patterns["bit-reversal"] {
		t.Error("an alias is listed as a primary name")
	}
	if _, _, err := CheckSourceSpec("mmpp"); err != nil {
		t.Errorf("source alias mmpp: %v", err)
	}
	if _, _, err := CheckPatternSpec("bit-reversal"); err != nil {
		t.Errorf("pattern alias bit-reversal: %v", err)
	}
	if _, _, err := CheckPatternSpec("poisson"); err == nil || !strings.Contains(err.Error(), "traffic: unknown pattern") {
		t.Errorf("source name accepted as a pattern: %v", err)
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate source registration did not panic")
		}
	}()
	RegisterSource(Info{Name: "poisson"}, func(registry.Spec) (SourceBuilder, error) { return nil, nil })
}
