package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"
)

type suiteOptions struct {
	seed    uint64
	seconds int
	reps    int
	aa      bool
	update  bool
}

// childTimeout bounds one child run: its measuring time plus set-up, the
// checks and, on a traced run, the extra comparison runs.
func childTimeout(seconds int) time.Duration {
	return time.Duration(seconds)*time.Second + 150*time.Second
}

// runChild runs one single-workload run in a fresh child process — a fresh
// heap, so peak RSS and GC state never leak between runs — echoes its report
// and parses the result JSON off the last line of its output.
func runChild(w workload, o suiteOptions, traced bool) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
	}
	if o.update {
		args = append(args, "-update-golden")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout(o.seconds))
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s: child run: %w", w.name, err)
	}
	// Everything above the last line is the child's own report: its
	// iteration statistics and FAILED lines, or the per-layer table.
	out = bytes.TrimRight(out, "\n")
	cut := bytes.LastIndexByte(out, '\n') + 1
	os.Stdout.Write(out[:cut])
	var res result
	if err := json.Unmarshal(out[cut:], &res); err != nil {
		return result{}, fmt.Errorf("%s: child result: %w", w.name, err)
	}
	return res, nil
}

// set is one full set of untraced runs: per workload, per end-to-end
// metric, the value of every rep.
type set map[string]map[string][]float64

// runSet runs every workload reps times, interleaved round-robin so a slow
// minute on a shared host is spread over all of them. It returns the
// values and the operations attempted and failed.
func runSet(o suiteOptions) (set, int, int, error) {
	values := set{}
	attempted, failed := 0, 0
	for rep := 0; rep < o.reps; rep++ {
		for _, w := range workloads {
			res, err := runChild(w, o, false)
			if err != nil {
				return nil, 0, 0, err
			}
			attempted, failed = attempted+res.Attempted, failed+res.Failed
			if values[w.name] == nil {
				values[w.name] = map[string][]float64{}
			}
			for name, mv := range res.Metrics {
				values[w.name][name] = append(values[w.name][name], mv.Value)
			}
			fmt.Printf("rep %d/%d %s ops_attempted=%d ops_failed=%d\n", rep+1, o.reps, w.name, res.Attempted, res.Failed)
		}
	}
	return values, attempted, failed, nil
}

func (s set) print() {
	for _, w := range workloads {
		fmt.Printf("%s\n", w.name)
		for _, def := range endToEnd {
			vs := s[w.name][def.Name]
			q1, q3 := quartiles(vs)
			fmt.Printf("  %-18s median=%-12.6g q1=%-12.6g q3=%-12.6g spread=%5.2f%% n=%d %s (%s is better) values=%.6g\n",
				def.Name, median(vs), q1, q3, relSpread(vs)*100, len(vs), def.Unit, def.Better, vs)
		}
	}
}

// worsening is how much worse b's median is than a's, as a share of a's,
// in the metric's own direction; negative when b is better.
func worsening(def metricDef, a, b float64) float64 {
	if def.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSuite is the whole benchmark in one command: every workload, every
// end-to-end metric as a median over reps, then one traced run per
// workload for the per-layer rows. With aa it instead runs two sets of the
// same code and holds their medians to the bounds.
func runSuite(o suiteOptions) int {
	if o.update {
		o.seed, o.reps, o.aa = 1, 1, false
	}
	first, attempted, failed, err := runSet(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	first.print()
	exit := 0
	if o.aa {
		second, a2, f2, err := runSet(o)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		attempted, failed = attempted+a2, failed+f2
		second.print()
		fmt.Println("A/A: second set against the first, same code")
		for _, w := range workloads {
			for _, def := range endToEnd {
				a, b := median(first[w.name][def.Name]), median(second[w.name][def.Name])
				worse := worsening(def, a, b)
				verdict := "ok"
				if worse > def.Bound {
					verdict, exit = "EXCEEDS BOUND", 1
				}
				fmt.Printf("  %-14s %-18s %-12.6g %-12.6g worse by %+6.2f%% bound %4.0f%% %s\n",
					w.name, def.Name, a, b, worse*100, def.Bound*100, verdict)
			}
		}
	} else if !o.update {
		for _, w := range workloads {
			res, err := runChild(w, o, true)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			attempted, failed = attempted+res.Attempted, failed+res.Failed
		}
	}
	fmt.Printf("ops_attempted=%d ops_failed=%d\n", attempted, failed)
	if failed > 0 {
		exit = 1
	}
	return exit
}
