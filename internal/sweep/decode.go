package sweep

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/metrics"
)

// DecodeRecord reads one checkpoint line (EncodeLine's output for a
// Record, the newline optional) as json.Unmarshal would: a line in the
// layout json.Marshal writes is walked once by hand, and any other input
// goes to encoding/json, which gives its own value or error.
func DecodeRecord(line []byte) (Record, error) {
	w := NewWalker(line)
	if rec := w.Record(""); w.End() {
		return rec, nil
	}
	var rec Record
	err := json.Unmarshal(line, &rec)
	return rec, err
}

// Walker reads JSON in the layout json.Marshal writes — keys in
// declaration order, no whitespace — in one pass, checking each token
// against RFC 8259's grammar. At the first byte off that layout it stops,
// End reports false, and the caller hands the whole input to
// encoding/json: what a Walker accepts decodes as encoding/json would.
type Walker struct {
	b  []byte
	ok bool
}

// NewWalker returns a Walker at the start of b.
func NewWalker(b []byte) Walker { return Walker{b, true} }

// End reports whether the input was in the layout to its end, a final
// newline aside.
func (w *Walker) End() bool { return w.ok && (len(w.b) == 0 || string(w.b) == "\n") }

// Lit reads s.
func (w *Walker) Lit(s string) { w.ok = w.Opt(s) }

// Opt reads s if the input goes on with it, and reports whether it did.
func (w *Walker) Opt(s string) bool {
	if w.ok && len(w.b) >= len(s) && string(w.b[:len(s)]) == s {
		w.b = w.b[len(s):]
		return true
	}
	return false
}

// Each reads the members of an array or object whose opening bracket
// has been read, one item call per member, through the closing one.
func (w *Walker) Each(close string, item func()) {
	for i := 0; w.ok && !w.Opt(close); i++ {
		if i > 0 {
			w.Lit(",")
		}
		item()
	}
}

// Str reads key and a string. A string with an escape or a byte outside
// UTF-8 (an error message, a hostile ID) is decoded by encoding/json.
func (w *Walker) Str(key string) string {
	w.Lit(key)
	b, plain := w.b, true
	for i := 1; w.ok && i < len(b) && b[0] == '"' && b[i] >= 0x20; i++ {
		if b[i] == '\\' {
			plain, i = false, i+1
		} else if b[i] == '"' {
			w.b = b[i+1:]
			if plain && utf8.Valid(b[1:i]) {
				return string(b[1:i])
			}
			var s string
			w.ok = json.Unmarshal(b[:i+1], &s) == nil
			return s
		}
	}
	w.ok = false
	return ""
}

// num reads key and a number token of RFC 8259's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (w *Walker) num(key string) []byte {
	w.Lit(key)
	b, i := w.b, 0
	digits := func() bool {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else {
		w.ok = w.ok && digits()
	}
	if i < len(b) && b[i] == '.' {
		i++
		w.ok = w.ok && digits()
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		w.ok = w.ok && digits()
	}
	w.b = b[i:]
	return b[:i]
}

// f64, u64 and i64 read key and a number, and parse it as encoding/json
// parses one into a field of their kind.
func (w *Walker) f64(key string) float64 {
	f, err := strconv.ParseFloat(string(w.num(key)), 64)
	w.ok = w.ok && err == nil
	return f
}

func (w *Walker) u64(key string) uint64 {
	n, err := strconv.ParseUint(string(w.num(key)), 10, 64)
	w.ok = w.ok && err == nil
	return n
}

func (w *Walker) i64(key string, bits int) int64 {
	n, err := strconv.ParseInt(string(w.num(key)), 10, bits)
	w.ok = w.ok && err == nil
	return n
}

// Record reads key and a Record.
func (w *Walker) Record(key string) (rec Record) {
	w.Lit(key)
	rec.ID = w.Str(`{"id":`)
	rec.Label = w.Str(`,"label":`)
	r := &rec.Results
	r.MeanLatency = w.f64(`,"results":{"MeanLatency":`)
	r.LatencyCI95 = w.f64(`,"LatencyCI95":`)
	r.P50 = w.f64(`,"P50":`)
	r.P95 = w.f64(`,"P95":`)
	r.P99 = w.f64(`,"P99":`)
	r.MaxLatency = w.f64(`,"MaxLatency":`)
	r.Throughput = w.f64(`,"Throughput":`)
	r.AcceptedFraction = w.f64(`,"AcceptedFraction":`)
	r.Delivered = w.u64(`,"Delivered":`)
	r.Generated = w.u64(`,"Generated":`)
	r.QueuedFault = w.u64(`,"QueuedFault":`)
	r.QueuedVia = w.u64(`,"QueuedVia":`)
	r.Dropped = w.u64(`,"Dropped":`)
	r.Cycles = w.i64(`,"Cycles":`, 64)
	r.Nodes = int(w.i64(`,"Nodes":`, strconv.IntSize))
	if w.Lit(`,"Saturated":`); !w.Opt("false") {
		r.Saturated = true
		w.Lit("true")
	}
	r.Transitions = w.u64(`,"Transitions":`)
	r.Reinjected = w.u64(`,"Reinjected":`)
	r.Lost = w.u64(`,"Lost":`)
	if w.Lit(`,"Windows":`); !w.Opt("null") {
		w.Lit("[")
		r.Windows = []metrics.Window{}
		w.Each("]", func() {
			win := metrics.Window{Start: w.i64(`{"Start":`, 64), End: w.i64(`,"End":`, 64),
				Generated: w.u64(`,"Generated":`), Delivered: w.u64(`,"Delivered":`)}
			w.Lit("}")
			r.Windows = append(r.Windows, win)
		})
	}
	if w.Lit(`,"Convergence":`); !w.Opt("null") {
		w.Lit("[")
		r.Convergence = []int64{}
		w.Each("]", func() { r.Convergence = append(r.Convergence, w.i64("", 64)) })
	}
	r.MeanConvergence = w.f64(`,"MeanConvergence":`)
	r.MinAvailability = w.f64(`,"MinAvailability":`)
	if w.Lit("}"); w.Opt(`,"err":`) {
		rec.Err = w.Str("")
	}
	w.Lit("}")
	return rec
}
