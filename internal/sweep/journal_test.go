package sweep

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func writeJournal(t *testing.T, path string, recs ...Record) {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func rec(id string, lat float64) Record {
	return Record{ID: id, Label: "pt-" + id, Results: metrics.Results{MeanLatency: lat, Delivered: 7}}
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	want := []Record{rec("aa", 1.5), rec("bb", 2.25), {ID: "cc", Label: "pt-cc", Err: "boom"}}
	writeJournal(t, path, want...)
	got, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("record %d: %+v != %+v", i, got[i], want[i])
		}
	}
}

// TestJournalRecoversTornTail covers the two interruption geometries:
// a journal cut exactly at a record boundary, and one cut mid-line.
// Both must recover the intact records and let appends resume cleanly.
func TestJournalRecoversTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  func(data []byte) []byte
	}{
		{"boundary", func(data []byte) []byte { return data }},
		{"mid-line", func(data []byte) []byte { return data[:len(data)-9] }},
		{"torn-append", func(data []byte) []byte { return append(data, `{"id":"dd","lab`...) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.jsonl")
			writeJournal(t, path, rec("aa", 1), rec("bb", 2))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.cut(data), 0o644); err != nil {
				t.Fatal(err)
			}
			wantIntact := 2
			if tc.name == "mid-line" {
				wantIntact = 1 // the cut destroyed record bb
			}
			j, err := OpenJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(j.Records()); got != wantIntact {
				t.Fatalf("recovered %d records, want %d", got, wantIntact)
			}
			// Appending after recovery must yield a clean journal.
			if err := j.Append(rec("ee", 5)); err != nil {
				t.Fatal(err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadJournal(path)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != wantIntact+1 || got[len(got)-1].ID != "ee" {
				t.Fatalf("after recovery+append: %+v", got)
			}
		})
	}
}

func TestJournalRejectsMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	writeJournal(t, path, rec("aa", 1))
	data, _ := os.ReadFile(path)
	data = append([]byte("not json at all\n"), data...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJournal(path); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("mid-file corruption not rejected: %v", err)
	}
}
