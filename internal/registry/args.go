package registry

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Args is the typed accessor over a Spec's parameters, obtained from the
// owning Table. Every accessor marks its key as consumed and records the
// first conversion or range error; Finish reports that error, or complains
// about keys no accessor asked for and names the ones they did. A seam's
// parameter extraction is one function over an Args, used both as its
// static check and by its factory, so validation and construction cannot
// drift.
type Args struct {
	pkg   string
	spec  Spec
	used  []bool   // parallel to spec.Params
	asked []string // the keys the accessors looked up, in first-asked order
	err   error
}

// NewArgs returns an accessor over a spec no Table owns (a service mode's
// settings); pkg prefixes its errors.
func NewArgs(pkg string, spec Spec) *Args {
	return &Args{pkg: pkg, spec: spec, used: make([]bool, len(spec.Params))}
}

// Failf records a parameter error (the first one wins), prefixed with the
// owning package and the spec.
func (a *Args) Failf(format string, v ...any) {
	if a.err == nil {
		a.err = fmt.Errorf("%s: spec %q: %s", a.pkg, a.spec.String(), fmt.Sprintf(format, v...))
	}
}

func (a *Args) lookup(key string) (string, bool) {
	a.ask(key)
	for i, p := range a.spec.Params {
		if p.Key == key {
			a.used[i] = true
			return p.Value, true
		}
	}
	return "", false
}

// parseFinite is the one place numbers enter a spec: NaN and ±Inf satisfy
// ParseFloat but no simulation parameter, so they are rejected here.
func parseFinite(s string) (float64, bool) {
	v, err := strconv.ParseFloat(s, 64)
	return v, err == nil && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// float returns the finite value of key and whether it was present and
// well-formed.
func (a *Args) float(key string) (float64, bool) {
	s, ok := a.lookup(key)
	if !ok {
		return 0, false
	}
	v, ok := parseFinite(s)
	if !ok {
		a.Failf("parameter %s=%q is not a finite number", key, s)
	}
	return v, ok
}

// Float returns the value of key as a finite float64, or def when absent.
func (a *Args) Float(key string, def float64) float64 {
	if v, ok := a.float(key); ok {
		return v
	}
	return def
}

// PositiveFloat is Float restricted to values > 0 when present.
func (a *Args) PositiveFloat(key string, def float64) float64 {
	v, ok := a.float(key)
	if !ok {
		return def
	}
	if v <= 0 {
		a.Failf("parameter %s must be > 0, got %g", key, v)
	}
	return v
}

// Fraction is Float restricted to (0, 1] when present.
func (a *Args) Fraction(key string, def float64) float64 {
	v, ok := a.float(key)
	if !ok {
		return def
	}
	if v <= 0 || v > 1 {
		a.Failf("parameter %s must be in (0,1], got %g", key, v)
	}
	return v
}

// integer returns the value of key and whether it was present and
// well-formed.
func (a *Args) integer(key string) (int, bool) {
	s, ok := a.lookup(key)
	if !ok {
		return 0, false
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		a.Failf("parameter %s=%q is not an integer", key, s)
	}
	return v, err == nil
}

// Int returns the value of key as an int, or def when absent.
func (a *Args) Int(key string, def int) int {
	if v, ok := a.integer(key); ok {
		return v
	}
	return def
}

// PositiveInt is Int restricted to values >= 1 when present.
func (a *Args) PositiveInt(key string, def int) int { return a.intAtLeast(key, def, 1) }

// NonNegativeInt is Int restricted to values >= 0 when present.
func (a *Args) NonNegativeInt(key string, def int) int { return a.intAtLeast(key, def, 0) }

func (a *Args) intAtLeast(key string, def, lo int) int {
	v, ok := a.integer(key)
	if !ok {
		return def
	}
	if v < lo {
		a.Failf("parameter %s must be >= %d, got %d", key, lo, v)
	}
	return v
}

// Str returns the raw value of key, or def when absent.
func (a *Args) Str(key, def string) string {
	if s, ok := a.lookup(key); ok {
		return s
	}
	return def
}

func (a *Args) ask(key string) {
	if !slices.Contains(a.asked, key) {
		a.asked = append(a.asked, key)
	}
}

// NodeFloats consumes every decimal-keyed parameter as a node id -> float
// entry (finite values >= 0 only).
func (a *Args) NodeFloats() map[int]float64 {
	a.ask("<node>")
	out := map[int]float64{}
	for i, p := range a.spec.Params {
		if !IsNodeKey(p.Key) {
			continue
		}
		a.used[i] = true
		id, err := strconv.Atoi(p.Key)
		if err != nil {
			a.Failf("bad node id %q", p.Key)
			continue
		}
		v, ok := parseFinite(p.Value)
		if !ok || v < 0 {
			a.Failf("node %d: value %q must be a finite number >= 0", id, p.Value)
			continue
		}
		out[id] = v
	}
	return out
}

// Finish returns the first recorded error, or an unknown-parameter error
// for any key no accessor consumed, listing the keys they asked for.
func (a *Args) Finish() error {
	if a.err != nil {
		return a.err
	}
	for i, p := range a.spec.Params {
		if !a.used[i] {
			accepted := "none"
			if len(a.asked) > 0 {
				accepted = strings.Join(a.asked, ", ")
			}
			a.Failf("unknown parameter %q (accepted: %s)", p.Key, accepted)
			break
		}
	}
	return a.err
}
