// Package registry is the one implementation behind the five string-keyed
// plug-in seams (topologies, routing algorithms, destination patterns,
// arrival sources, fault schedules): the "name[:key=val,...]" spec grammar
// (Spec, Parse), the typed parameter accessor factories and static checks
// share (Args), and the name+alias table with its sorted listing (Table).
// Beside the grammar sits the one reader for the comma-separated files the
// simulator is handed (ReadRecords, IntField). It is a leaf package; each
// seam keeps only its typed Register/New/Check entry points.
package registry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Spec is a parsed specifier of the form
//
//	name
//	name:key=value,key=value,...
//
// e.g. "torus:k=8,n=2", "hotspot:frac=0.1,node=12" or
// "mtbf:mtbf=20000,mttr=2000". Names and keys are lower-case identifiers;
// per-node parameters use the decimal node id as the key
// ("nodemap:default=0.001,12=0.01"). Values are free-form up to the next
// comma.
type Spec struct {
	Name   string
	Params []Param
}

// Param is one key=value pair of a Spec, in written order.
type Param struct {
	Key, Value string
}

// Get returns the value of key and whether it was present.
func (s Spec) Get(key string) (string, bool) {
	for _, p := range s.Params {
		if p.Key == key {
			return p.Value, true
		}
	}
	return "", false
}

// String renders the spec back into its parseable form.
func (s Spec) String() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Params))
	for i, p := range s.Params {
		parts[i] = p.Key + "=" + p.Value
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

// validName reports whether s is a legal spec name or parameter key:
// non-empty, lower-case letters, digits, '-' or '_'.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if (c < 'a' || c > 'z') && (c < '0' || c > '9') && c != '-' && c != '_' {
			return false
		}
	}
	return true
}

// IsNodeKey reports whether a parameter key is a decimal node id (the
// per-node entries of nodemap sources and weighted patterns), so layers
// that know the network size can range-check such keys.
func IsNodeKey(key string) bool {
	for _, c := range key {
		if c < '0' || c > '9' {
			return false
		}
	}
	return key != ""
}

// Parse parses a "name[:key=val,...]" specifier. Surrounding whitespace
// (of the whole spec and of each key and value) is dropped, so
// Parse(spec.String()) reproduces spec. Errors carry no package prefix;
// Table.Resolve adds the owning seam's.
func Parse(s string) (Spec, error) {
	s = strings.TrimSpace(s)
	name, rest, hasParams := strings.Cut(s, ":")
	if !validName(name) {
		return Spec{}, fmt.Errorf("bad spec name %q in %q", name, s)
	}
	spec := Spec{Name: name}
	if !hasParams {
		return spec, nil
	}
	if rest == "" {
		return Spec{}, fmt.Errorf("spec %q has an empty parameter list", s)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if !ok || !validName(key) || val == "" {
			return Spec{}, fmt.Errorf("bad parameter %q in spec %q (want key=value)", kv, s)
		}
		if _, dup := spec.Get(key); dup {
			return Spec{}, fmt.Errorf("duplicate parameter %q in spec %q", key, s)
		}
		spec.Params = append(spec.Params, Param{Key: key, Value: val})
	}
	return spec, nil
}

// ReadRecords is the one tokeniser for the files the simulator is handed
// (fault traces, workloads, latency maps): each line is trimmed, blank and
// '#' lines are skipped, and the rest is split on commas with every field
// trimmed before fn sees it. An error from fn comes back prefixed with
// "line N: "; a file opener puts the file's name in front of that.
func ReadRecords(r io.Reader, fn func(fields []string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		for i := range fields {
			fields[i] = strings.TrimSpace(fields[i])
		}
		if err := fn(fields); err != nil {
			return fmt.Errorf("line %d: %w", n, err)
		}
	}
	return sc.Err()
}

// IntField parses a record's decimal integer field, which must lie in
// [lo, hi]; name says which field in the error.
func IntField(name, s string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	switch {
	case err != nil:
		return 0, fmt.Errorf("%s %q is not a decimal int64", name, s)
	case v < lo || v > hi:
		return 0, fmt.Errorf("%s %d out of range [%d,%d]", name, v, lo, hi)
	}
	return v, nil
}
