package trace

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/message"
)

func TestWorkloadRoundTrip(t *testing.T) {
	var w Workload
	w.Append(WorkloadRecord{Cycle: 1, Src: 0, Dst: 5, Len: 32})
	w.Append(WorkloadRecord{Cycle: 9, Src: 63, Dst: 2, Len: 8})
	w.Append(WorkloadRecord{Cycle: 9, Src: 1, Dst: 3, Len: 1})
	var b strings.Builder
	if err := w.Write(&b); err != nil {
		t.Fatal(err)
	}
	got, err := ParseWorkload(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != w.Len() {
		t.Fatalf("parsed %d records, wrote %d", got.Len(), w.Len())
	}
	for i := range w.Records {
		if got.Records[i] != w.Records[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got.Records[i], w.Records[i])
		}
	}
}

func TestParseWorkloadSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n 3,1,2,16 \n# trailing comment\n7,0,9,4\n"
	w, err := ParseWorkload(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 || w.Records[0].Cycle != 3 || w.Records[1].Dst != 9 {
		t.Fatalf("parsed %+v", w.Records)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	for _, in := range []string{
		"1,2,3",                               // too few fields
		"1,2,3,4,5",                           // too many fields
		"x,2,3,4",                             // not a number
		"-1,2,3,4",                            // negative cycle
		"1,-2,3,4",                            // negative node
		"1,2,3,4.5",                           // non-integer length
		"1,2,3,0",                             // empty worm
		"1,2,3,32768",                         // message.MaxLen+1: flit 1<<15 would read as a head
		"1,2,3,9223372036854775807",           // the longest int64 length
		`{"cycle":1,"src":2,"dst":3,"len":4}`, // JSONL is not a workload
	} {
		if _, err := ParseWorkload(strings.NewReader(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	// Errors name the line; the longest legal worm is accepted.
	if _, err := ParseWorkload(strings.NewReader("# h\n1,2,3,4\n\n5,6,7\n")); err == nil || !strings.HasPrefix(err.Error(), "line 4: ") {
		t.Errorf("got %v, want an error naming line 4", err)
	}
	if w, err := ParseWorkload(strings.NewReader("1,2,3,32767")); err != nil || w.Records[0].Len != message.MaxLen {
		t.Errorf("message.MaxLen rejected: %v", err)
	}
}

// FuzzParseWorkload hardens the workload reader: any input is either an
// error or a workload that survives Write and a second parse unchanged.
func FuzzParseWorkload(f *testing.F) {
	for _, seed := range []string{
		"# workload: cycle,src,dst,len\n1,0,5,32\n9,63,2,8",
		"1,0,5,32768",               // one past message.MaxLen
		"1,0,5,9223372036854775807", // the longest int64 length
		"+1,0,5,4", "01,0,5,4", "1.0,0,5,4",
		"1,0,5,4\r\n2,1,6,4\r\n",
		`{"cycle":1,"src":0,"dst":5,"len":4}`,
		"☃,0,5,4", "1,0,5\xff,4",
		"1,0,5", "1,0,5,4,9",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		w, err := ParseWorkload(strings.NewReader(in))
		if err != nil {
			return
		}
		var b strings.Builder
		if err := w.Write(&b); err != nil {
			t.Fatal(err)
		}
		again, err := ParseWorkload(strings.NewReader(b.String()))
		if err != nil || !reflect.DeepEqual(again, w) {
			t.Fatalf("%q parsed to %+v, but its rendering %q parses to %+v, %v", in, w, b.String(), again, err)
		}
	})
}
