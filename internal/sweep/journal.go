package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sync"

	"repro/internal/metrics"
)

// Record is one completed sweep point in a checkpoint journal: one JSON
// object per line. The ID ties the record back to its plan point
// (PointID); the label is carried for human inspection of journals, not
// for matching.
type Record struct {
	// ID is the stable point identity (PointID).
	ID string `json:"id"`
	// Label is the point's display label at the time it ran.
	Label string `json:"label"`
	// Results is the completed run's metrics summary.
	Results metrics.Results `json:"results"`
	// Err is the run's error message, empty on success. Errors are
	// journalled too: a point that failed deterministically would fail
	// identically on re-run, so recomputing it on resume is waste.
	Err string `json:"err,omitempty"`
}

// JSONL is an append-only file of newline-delimited JSON values of one
// type. Opening it recovers from a crashed writer by discarding a torn
// final line; an append is a single write of whole lines, so a process
// killed mid-append (even with SIGKILL) loses at most what that append
// was writing, never a previously completed value. Append and
// AppendLines are safe for concurrent use.
//
// Journal (the sweep checkpoint) is JSONL[Record]; the coordinator's
// plan journal is JSONL[PlanPoint]. Both inherit the same single-writer
// torn-tail contract.
type JSONL[T any] struct {
	mu     sync.Mutex
	f      *os.File
	loaded []T
}

// OpenJSONL opens (creating if absent) the JSONL file at path, loads
// its valid values, and truncates any torn final line so subsequent
// appends start on a clean line boundary. The file is opened with
// O_APPEND so every write lands at end-of-file rather than at a stale
// tracked offset. A file still has exactly one writer at a time —
// a fleet's one writer is its coordinator — because the recovery truncate on
// open can clip another writer's in-flight record; O_APPEND merely
// bounds the damage of a mistaken double-open to torn lines instead of
// interleaved overwrites.
func OpenJSONL[T any](path string) (*JSONL[T], error) {
	var loaded []T
	j, err := OpenJSONLFunc(path, func(v T, _ []byte) error {
		loaded = append(loaded, v)
		return nil
	})
	if err != nil {
		return nil, err
	}
	j.loaded = loaded
	return j, nil
}

// OpenJSONLFunc is OpenJSONL for an owner that indexes the file itself
// (the coordinator, whose cache entries are the journal lines): each
// valid value goes to visit, in file order, with the line that holds it
// — newline stripped, the caller's to keep — and Records stays empty. An
// error from visit aborts the open.
func OpenJSONLFunc[T any](path string, visit func(v T, line []byte) error) (*JSONL[T], error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	valid, err := scanJSONL(f, visit)
	if err != nil {
		_ = f.Close() // best-effort: the scan/truncate error is the one to report
		return nil, fmt.Errorf("sweep: read journal %s: %w", path, err)
	}
	// Drop any torn tail; O_APPEND then directs every write to the new
	// end-of-file, so no seek is needed.
	if err := f.Truncate(valid); err != nil {
		_ = f.Close() // best-effort: the scan/truncate error is the one to report
		return nil, fmt.Errorf("sweep: recover journal %s: %w", path, err)
	}
	return &JSONL[T]{f: f}, nil
}

// scanJSONL parses newline-terminated values from r (Records by
// DecodeRecord), hands each to visit with its line (newline stripped)
// and returns the byte offset just past the last valid one. A final
// line that is unterminated or
// fails to parse — a writer died mid-append — is dropped. A malformed
// line in the middle of the file is corruption, not a torn write, and
// is an error.
func scanJSONL[T any](r io.Reader, visit func(v T, line []byte) error) (valid int64, err error) {
	br := bufio.NewReader(r)
	for {
		line, err := br.ReadBytes('\n')
		if err == io.EOF {
			// Unterminated tail (possibly empty): torn write, drop it.
			return valid, nil
		}
		if err != nil {
			return 0, err
		}
		var v T
		var jerr error
		if rec, ok := any(&v).(*Record); ok {
			*rec, jerr = DecodeRecord(line)
		} else {
			jerr = json.Unmarshal(line, &v)
		}
		if jerr != nil {
			if _, peekErr := br.ReadByte(); peekErr == io.EOF {
				// Torn final line that happens to end in '\n' garbage is
				// indistinguishable from corruption; but a parse failure on
				// the very last line is overwhelmingly a torn write — drop.
				return valid, nil
			}
			return 0, fmt.Errorf("corrupt record at byte %d: %w", valid, jerr)
		}
		if err := visit(v, line[:len(line)-1]); err != nil {
			return 0, err
		}
		valid += int64(len(line))
	}
}

// Records returns the values loaded when the file was opened. It does
// not include values appended since; Run loads before running.
func (j *JSONL[T]) Records() []T { return j.loaded }

// EncodeLine returns v's journal line: its JSON encoding and the
// terminating newline.
func EncodeLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("sweep: marshal record: %w", err)
	}
	return append(b, '\n'), nil
}

// Append journals one value as a single whole-line write.
func (j *JSONL[T]) Append(v T) error {
	line, err := EncodeLine(v)
	if err != nil {
		return err
	}
	return j.AppendLines(line)
}

// AppendLines journals already-encoded values — EncodeLine's output for
// a T, or several of them concatenated — as one write: whole lines or,
// if the writer dies, a torn tail the next open drops.
func (j *JSONL[T]) AppendLines(lines []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(lines); err != nil {
		return fmt.Errorf("sweep: append record: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *JSONL[T]) Close() error { return j.f.Close() }

// Journal is the sweep checkpoint: an append-only JSONL file of
// completed-point Records.
type Journal = JSONL[Record]

// OpenJournal opens (creating if absent) the checkpoint journal at
// path; see OpenJSONL for the recovery and single-writer contract.
func OpenJournal(path string) (*Journal, error) {
	return OpenJSONL[Record](path)
}

// ReadJournal loads the valid records of the journal at path without
// opening it for writing; a torn final line is silently dropped, as in
// OpenJournal.
func ReadJournal(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	defer f.Close()
	var records []Record
	if _, err := scanJSONL(f, func(rec Record, _ []byte) error {
		records = append(records, rec)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("sweep: read journal %s: %w", path, err)
	}
	return records, nil
}

// RecordsAgree reports whether two records for the same point ID are
// consistent under the determinism contract: engine runs are
// deterministic, so two successful records must match exactly
// (DeepEqual rather than ==, because Results carries slices — chaos
// windows/convergence — since dynamic faults landed). Two *failed*
// records agree regardless of message text, because error strings
// legitimately vary between runs of the same deterministic failure
// (panic reports embed stack addresses). A disagreement means the
// records came from diverging code or data; the sweep coordinator
// rejects the later submission.
func RecordsAgree(a, b Record) bool {
	if a.Err != "" && b.Err != "" {
		return true
	}
	return reflect.DeepEqual(a, b)
}
