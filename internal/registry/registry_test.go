package registry

import (
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Spec
	}{
		{"poisson", Spec{Name: "poisson"}},
		{" uniform ", Spec{Name: "uniform"}},
		{"k-ary-n-cube", Spec{Name: "k-ary-n-cube"}},
		{"torus:k=8,n=2", Spec{"torus", []Param{{"k", "8"}, {"n", "2"}}}},
		{"burst:on=50,off=200,rate=0.02", Spec{"burst", []Param{{"on", "50"}, {"off", "200"}, {"rate", "0.02"}}}},
		{"nodemap:default=0.001,12=0.01", Spec{"nodemap", []Param{{"default", "0.001"}, {"12", "0.01"}}}},
		{"mtbf: mtbf = 20000 , mttr=2000", Spec{"mtbf", []Param{{"mtbf", "20000"}, {"mttr", "2000"}}}},
		// Values are free-form up to the next comma.
		{"replay:file=/tmp/w.csv", Spec{"replay", []Param{{"file", "/tmp/w.csv"}}}},
		{"trace:file=C:\\ev=1;x.csv", Spec{"trace", []Param{{"file", "C:\\ev=1;x.csv"}}}},
	} {
		got, err := Parse(tc.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Parse(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for in, want := range map[string]string{
		"":                  "bad spec name",       // empty
		":frac=0.1":         "bad spec name",       // no name
		"Burst:on=50":       "bad spec name",       // upper case name
		"hot spot:frac=0.1": "bad spec name",       // space inside name
		"trace=events.csv":  "bad spec name",       // '=' in the name: no per-seam shorthand
		"burst:":            "empty parameter",     // empty param list
		"burst:on":          "bad parameter",       // no value
		"burst:=5":          "bad parameter",       // no key
		"burst:on=":         "bad parameter",       // empty value
		"burst:o n=5":       "bad parameter",       // space inside key
		"burst:on@x=5":      "bad parameter",       // bad key char
		"burst:On=5":        "bad parameter",       // upper case key
		"burst:on=5,,off=6": "bad parameter",       // empty pair
		"burst:on=5,on=6":   "duplicate parameter", // duplicate key
	} {
		if _, err := Parse(in); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", in, err, want)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, in := range []string{"poisson", "burst:on=50,off=200,rate=0.02", "weights:5=3,rest=1", "torus:k=8,n=2,latmap=l.csv"} {
		spec, err := Parse(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := spec.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
	}
	spec := Spec{"hotspot", []Param{{"frac", "0.1"}, {"node", "12"}}}
	if v, ok := spec.Get("node"); !ok || v != "12" {
		t.Errorf("Get(node) = %q, %v", v, ok)
	}
	if _, ok := spec.Get("spot"); ok {
		t.Error("Get found an absent key")
	}
	for key, want := range map[string]bool{"12": true, "0": true, "": false, "-1": false, "1a": false, "rest": false} {
		if IsNodeKey(key) != want {
			t.Errorf("IsNodeKey(%q) = %v", key, !want)
		}
	}
}

// FuzzParse hardens the one grammar every spec string crosses: any input
// either fails or parses to a Spec whose rendering parses back to itself.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"torus:k=8,n=2", "hypercube:n=10", "hotspot:frac=0.1,node=12", "nodemap:default=0.001,12=0.01",
		"trace:file=events.csv", "mtbf:mtbf=20000,mttr=2000,elems=mixed", " uniform ", "a: b = c ,d=e",
		"", ":", "a:", "a:=", "a:b", "a:b=c,b=d", "trace=events.csv", "a:b=c:d=e", "\xff:\xfe=\xfd",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		spec, err := Parse(in)
		if err != nil {
			return
		}
		if !validName(spec.Name) {
			t.Fatalf("Parse(%q) accepted name %q", in, spec.Name)
		}
		again, err := Parse(spec.String())
		if err != nil || !reflect.DeepEqual(again, spec) {
			t.Fatalf("Parse(%q) = %+v, but its rendering %q parses to %+v, %v", in, spec, spec.String(), again, err)
		}
	})
}

// args parses in and returns an accessor from a throwaway table, the way a
// seam's parameter-extraction function obtains one.
func args(t *testing.T, in string) *Args {
	t.Helper()
	spec, err := Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	return NewTable[int]("seam", "thing").Args(spec)
}

func TestArgsAccessors(t *testing.T) {
	a := args(t, "x:f=0.25,p=3.5,frac=1,i=-7,n=4,s=hello,12=0.5,7=0")
	if v := a.Float("f", 9); v != 0.25 {
		t.Errorf("Float = %v", v)
	}
	if v := a.PositiveFloat("p", 9); v != 3.5 {
		t.Errorf("PositiveFloat = %v", v)
	}
	if v := a.Fraction("frac", 9); v != 1 {
		t.Errorf("Fraction = %v", v)
	}
	if v := a.Int("i", 9); v != -7 {
		t.Errorf("Int = %v", v)
	}
	if v := a.PositiveInt("n", 9); v != 4 {
		t.Errorf("PositiveInt = %v", v)
	}
	if v := a.Str("s", "def"); v != "hello" {
		t.Errorf("Str = %q", v)
	}
	if got, want := a.NodeFloats(), map[int]float64{12: 0.5, 7: 0}; !reflect.DeepEqual(got, want) {
		t.Errorf("NodeFloats = %v, want %v", got, want)
	}
	if err := a.Finish(); err != nil {
		t.Errorf("Finish: %v", err)
	}

	// Absent keys yield their defaults and are not errors.
	a = args(t, "x")
	if a.Float("f", 1.5) != 1.5 || a.PositiveFloat("p", 0) != 0 || a.Fraction("frac", 0.1) != 0.1 ||
		a.Int("i", -1) != -1 || a.PositiveInt("n", 0) != 0 || a.Str("s", "def") != "def" || len(a.NodeFloats()) != 0 {
		t.Error("an absent key did not yield its default")
	}
	if err := a.Finish(); err != nil {
		t.Errorf("Finish on defaults: %v", err)
	}
}

func TestArgsErrors(t *testing.T) {
	for _, tc := range []struct {
		in   string
		read func(a *Args)
		want string
	}{
		{"x:f=abc", func(a *Args) { a.Float("f", 0) }, "not a finite number"},
		{"x:f=NaN", func(a *Args) { a.Float("f", 0) }, "not a finite number"},
		{"x:f=Inf", func(a *Args) { a.Float("f", 0) }, "not a finite number"},
		{"x:f=-inf", func(a *Args) { a.PositiveFloat("f", 0) }, "not a finite number"},
		{"x:f=+Infinity", func(a *Args) { a.Fraction("f", 0) }, "not a finite number"},
		{"x:f=1e999", func(a *Args) { a.Float("f", 0) }, "not a finite number"}, // overflows to +Inf
		{"x:f=0", func(a *Args) { a.PositiveFloat("f", 1) }, "must be > 0"},
		{"x:f=-2", func(a *Args) { a.PositiveFloat("f", 1) }, "must be > 0"},
		{"x:f=0", func(a *Args) { a.Fraction("f", 1) }, "must be in (0,1]"},
		{"x:f=1.5", func(a *Args) { a.Fraction("f", 1) }, "must be in (0,1]"},
		{"x:i=0.5", func(a *Args) { a.Int("i", 0) }, "not an integer"},
		{"x:i=200.9", func(a *Args) { a.PositiveInt("i", 0) }, "not an integer"},
		{"x:i=0", func(a *Args) { a.PositiveInt("i", 1) }, "must be >= 1"},
		{"x:5=-2", func(a *Args) { a.NodeFloats() }, "finite number >= 0"},
		{"x:5=nan", func(a *Args) { a.NodeFloats() }, "finite number >= 0"},
		{"x:5=Inf", func(a *Args) { a.NodeFloats() }, "finite number >= 0"},
		{"x:99999999999999999999=1", func(a *Args) { a.NodeFloats() }, "bad node id"},
		{"x:f=1,typo=2", func(a *Args) { a.Float("f", 0) }, `unknown parameter "typo" (accepted: f)`},
		{"x:f=1,typo=2", func(a *Args) { a.Int("i", 0); a.Float("f", 0); a.Int("i", 0) }, `unknown parameter "typo" (accepted: i, f)`},
		{"x:5=1,typo=2", func(a *Args) { a.NodeFloats(); a.Str("rest", "") }, `unknown parameter "typo" (accepted: <node>, rest)`},
		{"x:typo=2", func(*Args) {}, `unknown parameter "typo" (accepted: none)`},
		{"x:f=1", func(a *Args) { a.Failf("f and g are exclusive") }, "f and g are exclusive"},
		// The first error wins over later ones and over unknown keys.
		{"x:f=abc,g=0,typo=1", func(a *Args) { a.Float("f", 0); a.PositiveFloat("g", 1) }, "not a finite number"},
	} {
		a := args(t, tc.in)
		tc.read(a)
		err := a.Finish()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: Finish() = %v, want an error containing %q", tc.in, err, tc.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), "seam: spec ") {
			t.Errorf("%q: error %q lacks the table's package prefix", tc.in, err)
		}
	}
}

func TestTable(t *testing.T) {
	tb := NewTable[int]("seam", "thing")
	tb.Register(Info{Name: "zeta", Usage: "zeta[:k=<n>]", Description: "last", Aliases: []string{"z", "omega"}}, 26)
	tb.Register(Info{Name: "alpha", Usage: "alpha", Description: "first"}, 1)

	for name, want := range map[string]int{"zeta": 26, "z": 26, "omega": 26, "alpha": 1} {
		if got, ok := tb.Lookup(name); !ok || got != want {
			t.Errorf("Lookup(%q) = %d, %v; want %d", name, got, ok, want)
		}
	}
	if _, ok := tb.Lookup("beta"); ok {
		t.Error("Lookup found an unregistered name")
	}
	// Listings hold primary names only, sorted, whatever the registration order.
	if got := tb.Names(); !reflect.DeepEqual(got, []string{"alpha", "zeta"}) {
		t.Errorf("Names() = %v", got)
	}
	infos := tb.Infos()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Usage != "zeta[:k=<n>]" || len(infos[1].Aliases) != 2 {
		t.Errorf("Infos() = %+v", infos)
	}

	e, spec, err := tb.Resolve(" omega:k=3 ")
	if err != nil || e != 26 || spec.String() != "omega:k=3" {
		t.Errorf("Resolve(alias) = %d, %q, %v", e, spec.String(), err)
	}
	if _, _, err := tb.Resolve("beta:k=3"); err == nil || err.Error() != `seam: unknown thing "beta" (registered: [alpha zeta])` {
		t.Errorf("Resolve(unknown) = %v", err)
	}
	if _, _, err := tb.Resolve("zeta:"); err == nil || !strings.HasPrefix(err.Error(), "seam: spec ") {
		t.Errorf("Resolve(malformed) = %v, want the grammar error under the table's prefix", err)
	}
}

func TestTableRegisterPanics(t *testing.T) {
	for name, info := range map[string]Info{
		"empty name":             {},
		"duplicate primary":      {Name: "taken"},
		"primary shadows alias":  {Name: "also"},
		"alias shadows primary":  {Name: "fresh1", Aliases: []string{"taken"}},
		"alias shadows alias":    {Name: "fresh2", Aliases: []string{"also"}},
		"alias repeats own name": {Name: "fresh3", Aliases: []string{"fresh3"}},
	} {
		t.Run(name, func(t *testing.T) {
			tb := NewTable[int]("seam", "thing")
			tb.Register(Info{Name: "taken", Aliases: []string{"also"}}, 1)
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("Register(%+v) did not panic", info)
				} else if msg, _ := r.(string); !strings.HasPrefix(msg, "seam: ") {
					t.Errorf("panic %v lacks the table's package prefix", r)
				}
			}()
			tb.Register(info, 2)
		})
	}
}
