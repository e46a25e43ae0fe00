package core

import (
	"bytes"
	"flag"
	"io"
	"os"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/message"
)

// TestPrintRegistriesGolden pins the CLIs' -list output byte for byte:
// testdata/list.golden was recorded from the tree before the five seams
// moved onto internal/registry, less the removed trace=<events> shorthand
// clause of the trace schedule's usage line.
func TestPrintRegistriesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/list.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	PrintRegistries(&got, "")
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("-list output drifted from testdata/list.golden:\n%s", got.String())
	}
}

// TestBindFlags maps command lines to the Config the binder yields: -topo
// overrides -k/-n, -shape is a fault.ParseShapeSpec region in plane (0,1)
// (a bare Fig. 5 name its paper configuration), every flag left unset keeps
// def's value — -k/-n included, read back from def's network — and -m
// outside [1, message.MaxLen] is refused.
func TestBindFlags(t *testing.T) {
	def := DefaultConfig(4, 3, 0.01)
	def.Algorithm, def.MsgLen, def.Seed, def.Faults.RandomNodes = "adaptive", 16, 9, 2
	with := func(f func(*Config)) Config {
		c := def
		f(&c)
		return c
	}
	uSpec := fault.ShapeSpec{Shape: fault.ShapeU, A: 3, B: 4, AnchorA: 2, AnchorB: 2} // Fig. 5's U
	for _, tc := range []struct {
		name    string
		args    []string
		want    Config
		wantErr string
	}{
		{"defaults from def", nil, def, ""},
		{"-k alone keeps def's n", []string{"-k", "6"}, with(func(c *Config) { c.Topology = "torus:k=6,n=3" }), ""},
		{"-topo overrides -k/-n", []string{"-k", "6", "-n", "2", "-topo", "mesh:k=4,n=3"},
			with(func(c *Config) { c.Topology = "mesh:k=4,n=3" }), ""},
		{"the other six", []string{"-alg", "det", "-v", "6", "-m", "64", "-faults", "0", "-seed", "3"},
			with(func(c *Config) { c.Algorithm, c.V, c.MsgLen, c.Faults.RandomNodes, c.Seed = "det", 6, 64, 0, 3 }), ""},
		{"-shape U", []string{"-shape", "U"},
			with(func(c *Config) { c.Faults.Shapes = []ShapeStamp{{Spec: uSpec, DimA: 0, DimB: 1}} }), ""},
		{"-shape U:a=4,ax=1", []string{"-shape", "U:a=4,ax=1"},
			with(func(c *Config) {
				c.Faults.Shapes = []ShapeStamp{{Spec: fault.ShapeSpec{Shape: fault.ShapeU, A: 4, B: 4, AnchorA: 1, AnchorB: 2}, DimA: 0, DimB: 1}}
			}), ""},
		{"-shape Z", []string{"-shape", "Z"}, Config{}, `fault: unknown shape "Z" (bar|double-bar|rect|L|U|T|plus|H)`},
		{"-shape bar", []string{"-shape", "bar"}, Config{}, "fault: invalid bar shape: length 0"},
		{"-m 0", []string{"-m", "0"}, Config{}, "core: MsgLen must be in [1,32767], got 0"},
		{"-m -4", []string{"-m", "-4"}, Config{}, "core: MsgLen must be in [1,32767], got -4"},
		{"-m MaxLen", []string{"-m", "32767"}, with(func(c *Config) { c.MsgLen = message.MaxLen }), ""},
		{"-m MaxLen+1", []string{"-m", "32768"}, Config{}, "core: MsgLen must be in [1,32767], got 32768"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("t", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			config := BindFlags(fs, def)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, _, err := config()
			if tc.wantErr != "" {
				if err == nil || err.Error() != tc.wantErr {
					t.Fatalf("err %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %+v, %v\nwant %+v", got, err, tc.want)
			}
		})
	}
}
