package trace

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"

	"repro/internal/message"
	"repro/internal/registry"
	"repro/internal/topology"
)

// WorkloadRecord is one generated message of a captured workload: the cycle
// it was created, its endpoints, and its length in flits. A sequence of
// records is a complete, rng-free description of a run's offered traffic —
// enough to re-drive it through a different configuration (see
// internal/traffic's capture and replay sources).
type WorkloadRecord struct {
	Cycle int64
	Src   topology.NodeID
	Dst   topology.NodeID
	Len   int
}

// Workload is an append-only list of workload records in generation order.
type Workload struct {
	Records []WorkloadRecord
}

// Append adds one record.
func (w *Workload) Append(r WorkloadRecord) { w.Records = append(w.Records, r) }

// Len returns the number of captured records.
func (w *Workload) Len() int { return len(w.Records) }

// Write serialises the workload as CSV ("cycle,src,dst,len" per line) with
// a comment header, the format ParseWorkload reads back.
func (w *Workload) Write(out io.Writer) error {
	bw := bufio.NewWriter(out)
	if _, err := fmt.Fprintln(bw, "# workload: cycle,src,dst,len"); err != nil {
		return err
	}
	for _, r := range w.Records {
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d\n", r.Cycle, r.Src, r.Dst, r.Len); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseWorkload reads the CSV format Write produces, through the shared
// record reader (registry.ReadRecords: blank and '#' lines skipped, errors
// name the line). A length must lie in [1, message.MaxLen].
func ParseWorkload(in io.Reader) (*Workload, error) {
	var w Workload
	err := registry.ReadRecords(in, func(f []string) error {
		if len(f) != 4 {
			return fmt.Errorf("want cycle,src,dst,len, got %d fields", len(f))
		}
		cycle, err1 := registry.IntField("cycle", f[0], 0, math.MaxInt64)
		src, err2 := registry.IntField("src", f[1], 0, math.MaxInt)
		dst, err3 := registry.IntField("dst", f[2], 0, math.MaxInt)
		n, err4 := registry.IntField("len", f[3], 1, message.MaxLen)
		if err := cmp.Or(err1, err2, err3, err4); err != nil {
			return err
		}
		w.Append(WorkloadRecord{Cycle: cycle, Src: topology.NodeID(src), Dst: topology.NodeID(dst), Len: int(n)})
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &w, nil
}
