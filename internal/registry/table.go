package registry

import (
	"fmt"
	"sort"
	"sync"
)

// Info is the listing every seam shares: what -list prints and what
// unknown-name errors enumerate. Seams with more to say per entry (routing's
// MinV, traffic's NodeIDKeys) keep a richer Info of their own in the entry.
type Info struct {
	// Name is the primary registry key.
	Name string
	// Usage is the spec grammar, e.g. "torus[:k=<radix>,n=<dims>]".
	Usage string
	// Description is a one-line summary for -list style output.
	Description string
	// Aliases are additional keys resolving to the same entry.
	Aliases []string
}

// Table is a string-keyed registry of entries of type E (whatever the seam
// needs at lookup time: its factory, its extra Info fields), reachable
// under a primary name and any number of aliases. The zero value is not
// usable; build one with NewTable.
type Table[E any] struct {
	pkg, kind string
	mu        sync.RWMutex
	byKey     map[string]*item[E] // primary names and aliases
	primary   []string            // primary names, registration order
}

type item[E any] struct {
	info  Info
	entry E
}

// NewTable returns an empty table. pkg prefixes every error the table and
// its Args produce ("traffic: ..."); kind names what is registered in them
// ("unknown pattern ...").
func NewTable[E any](pkg, kind string) *Table[E] {
	return &Table[E]{pkg: pkg, kind: kind, byKey: make(map[string]*item[E])}
}

// Register adds e under info.Name and every alias. It panics on an empty
// name or a key already taken — registration happens in package init
// functions, where a panic is a build-time bug.
func (t *Table[E]) Register(info Info, e E) {
	if info.Name == "" {
		panic(fmt.Sprintf("%s: registration of a %s with an empty name", t.pkg, t.kind))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	it := &item[E]{info: info, entry: e}
	for _, key := range append([]string{info.Name}, info.Aliases...) {
		if _, dup := t.byKey[key]; dup {
			panic(fmt.Sprintf("%s: duplicate registration of %s %q", t.pkg, t.kind, key))
		}
		t.byKey[key] = it
	}
	t.primary = append(t.primary, info.Name)
}

// Lookup returns the entry registered under name (primary or alias).
func (t *Table[E]) Lookup(name string) (E, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	it, ok := t.byKey[name]
	if !ok {
		var zero E
		return zero, false
	}
	return it.entry, true
}

// Names returns the primary registered names, sorted.
func (t *Table[E]) Names() []string {
	t.mu.RLock()
	out := append([]string(nil), t.primary...)
	t.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Infos returns the Info of every registration, sorted by primary name.
func (t *Table[E]) Infos() []Info {
	names := t.Names()
	out := make([]Info, len(names))
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, name := range names {
		out[i] = t.byKey[name].info
	}
	return out
}

// Resolve parses a spec string and finds the entry its name selects;
// unknown names report the registered set.
func (t *Table[E]) Resolve(specStr string) (E, Spec, error) {
	var zero E
	spec, err := Parse(specStr)
	if err != nil {
		return zero, Spec{}, fmt.Errorf("%s: %w", t.pkg, err)
	}
	e, ok := t.Lookup(spec.Name)
	if !ok {
		return zero, Spec{}, fmt.Errorf("%s: unknown %s %q (registered: %v)", t.pkg, t.kind, spec.Name, t.Names())
	}
	return e, spec, nil
}

// Args returns a typed accessor over spec whose errors carry the table's
// package prefix.
func (t *Table[E]) Args(spec Spec) *Args {
	return NewArgs(t.pkg, spec)
}
