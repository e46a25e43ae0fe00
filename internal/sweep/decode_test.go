package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// realLines are the checkpoint lines of three real points: a fleet-tiny
// point (4-ary 2-cube, 20 measured messages), a chaos run, whose Windows
// and Convergence are arrays, and a failed point, which carries err.
func realLines(tb testing.TB) [][]byte {
	tb.Helper()
	tiny := core.DefaultConfig(4, 2, 0.004)
	tiny.WarmupMessages, tiny.MeasureMessages, tiny.Seed = 0, 20, 7
	chaos := core.DefaultConfig(4, 2, 0.004)
	chaos.WarmupMessages, chaos.MeasureMessages = 50, 400
	chaos.FaultSchedule = "mtbf:mtbf=400,mttr=150,elems=links"
	failed := core.PointResult{Err: errors.New(`config: "V" below MinV <2> & λ=0.004`)}
	lines := [][]byte{}
	for _, pr := range []core.PointResult{
		core.RunPointFunc(core.Point{Label: "tiny 0", Config: tiny}, core.Run),
		core.RunPointFunc(core.Point{Label: "λ=0.004 mtbf=400", Config: chaos}, core.Run),
		failed,
	} {
		line, err := EncodeLine(NewRecord("0123456789abcdef", pr))
		if err != nil {
			tb.Fatal(err)
		}
		lines = append(lines, line)
	}
	if !bytes.Contains(lines[1], []byte(`"Windows":[{`)) || !bytes.Contains(lines[1], []byte(`"Convergence":[`)) {
		tb.Fatalf("the chaos point did not record windows and convergence:\n%s", lines[1])
	}
	return lines
}

// withValue returns a copy of line whose first "key":value holds value
// instead.
func withValue(tb testing.TB, line []byte, key, value string) []byte {
	tb.Helper()
	start := bytes.Index(line, []byte(`"`+key+`":`))
	if start < 0 {
		tb.Fatalf("no %s in %s", key, line)
	}
	start += len(key) + 3
	end := start + bytes.IndexAny(line[start:], ",}")
	if line[start] == '[' {
		end = start + bytes.IndexByte(line[start:], ']') + 1
	}
	return append(append(append([]byte{}, line[:start]...), value...), line[end:]...)
}

// FuzzDecodeRecord is the differential check of the fast path: for any
// input, DecodeRecord gives json.Unmarshal's value and error, and the
// walk either declines the input or reads what encoding/json reads.
func FuzzDecodeRecord(f *testing.F) {
	lines := realLines(f)
	tiny := lines[0]
	for _, line := range lines {
		f.Add(line)
		f.Add(bytes.TrimSuffix(line, []byte("\n")))
		f.Add(line[:len(line)/2])
	}
	f.Add(withValue(f, withValue(f, tiny, "Windows", "[]"), "Convergence", "[]"))
	f.Add(withValue(f, lines[1], "Windows", "null"))
	for _, v := range []float64{1e-7, 1e21, 5e-324, 1.7976931348623157e308, -0.0, 0.1, 1e20, 123456789.125} {
		line, _ := EncodeLine(Record{ID: "x", Results: metrics.Results{MeanLatency: v, P99: -v}})
		f.Add(line)
	}
	for _, v := range []string{"-0", "1E+2", "1e-400", "1e400", "+1", "01", "-01", "1.", ".5", "-", "0x1p-2", "Inf", "NaN", "1_0", "1e", "0.0e-0", `"1"`, "null", "true"} {
		f.Add(withValue(f, tiny, "MeanLatency", v))
	}
	for _, v := range []string{"1.5", "-1", "1e2", "18446744073709551615", "18446744073709551616", "+1", "01"} {
		f.Add(withValue(f, tiny, "Delivered", v))
	}
	for _, v := range []string{"-9223372036854775808", "9223372036854775808", "1.0", "-0"} {
		f.Add(withValue(f, tiny, "Cycles", v))
	}
	for _, v := range []string{`"a\"b"`, `"é"`, `"é λ ☃"`, "\"\xff\"", "\"tab\there\"", `" "`, `""`, `null`} {
		f.Add(withValue(f, tiny, "label", v))
	}
	f.Add(bytes.Replace(tiny, []byte(`"Saturated":false`), []byte(`"Saturated":null`), 1))
	f.Add(bytes.Replace(tiny, []byte(`{"id":`), []byte(`{ "id":`), 1))
	f.Add(bytes.Replace(tiny, []byte(`"label"`), []byte(`"Label"`), 1))
	f.Add(bytes.Replace(tiny, []byte(`"P50"`), []byte(`"P95"`), 1))
	f.Add(append(bytes.TrimSuffix(tiny, []byte("\n")), " \n"...))
	f.Add(append(bytes.TrimSuffix(tiny, []byte("\n")), "\n\n"...))
	f.Add(bytes.Replace(lines[2], []byte(`"err":`), []byte(`"err":"","err":`), 1))
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Record
		wantErr := json.Unmarshal(line, &want)
		got, err := DecodeRecord(line)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("DecodeRecord(%q) = %+v, %v\nencoding/json: %+v, %v", line, got, err, want, wantErr)
		}
		w := NewWalker(line)
		if fast := w.Record(""); w.End() && (wantErr != nil || !reflect.DeepEqual(fast, want)) {
			t.Fatalf("the fast path read %q as %+v; encoding/json reads %+v, %v", line, fast, want, wantErr)
		}
	})
}

// fill gives every settable field under v a distinct non-zero value (n
// counts them) and fails on a kind it has no value for.
func fill(t *testing.T, v reflect.Value, n *int) {
	*n++
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Field(i).CanSet() {
				fill(t, v.Field(i), n)
			}
		}
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		fill(t, v.Index(0), n)
		fill(t, v.Index(1), n)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Float64:
		v.SetFloat(float64(*n) + 0.25)
	case reflect.Int, reflect.Int64:
		v.SetInt(-int64(*n))
	case reflect.Uint64:
		v.SetUint(uint64(*n))
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("field of type %s: no value to fill it with — and does the fast path read it?", v.Type())
	}
}

// TestDecodeRecordCoversEveryField: a record whose every exported field,
// down through Results and its Windows, holds a distinct non-zero value
// is read by the fast path, not handed to encoding/json, and comes back
// equal. A field added to Results without a line in Walker.Record fails
// here instead of sending every record down the slow path.
func TestDecodeRecordCoversEveryField(t *testing.T) {
	var rec Record
	n := 0
	fill(t, reflect.ValueOf(&rec).Elem(), &n)
	line, err := EncodeLine(rec)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWalker(line)
	if got := w.Record(""); !w.End() || !reflect.DeepEqual(got, rec) {
		t.Fatalf("fast path on %s\n= %+v (in layout to the end: %v), want %+v", line, got, w.End(), rec)
	}
}

// BenchmarkDecodeRecord compares the fast path with encoding/json on a
// fleet-tiny point's line.
func BenchmarkDecodeRecord(b *testing.B) {
	line := realLines(b)[0]
	b.Run("walk", func(b *testing.B) {
		for b.Loop() {
			if _, err := DecodeRecord(line); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		for b.Loop() {
			var rec Record
			if err := json.Unmarshal(line, &rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}
