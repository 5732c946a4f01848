package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// steadyMain runs each workload k times, one process per run with
// seeds 1 … k, and prints each end-to-end metric's median,
// quartiles and spread (the interquartile range as a share of the
// median) against its bound. A spread under a third of the bound is
// steady; the records can be kept for compare with -out.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("ffbench steady", flag.ContinueOnError)
	k := fs.Int("k", 5, "runs per workload")
	seconds := fs.Float64("seconds", 30, "measured window per run")
	out := fs.String("out", "", "append every run's record line to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffbench steady:", err)
		return 1
	}
	var recs []record
	status := 0
	for _, w := range workloads {
		name := w.Name
		for i := 0; i < *k; i++ {
			seed := int64(i + 1)
			cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
				"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(os.Stderr, "ffbench steady: %s seed %d: %v\n", name, seed, err)
				return 1
			}
			rs, err := readRecords(bytes.NewReader(stdout))
			if err != nil || len(rs) != 1 {
				fmt.Fprintf(os.Stderr, "ffbench steady: %s seed %d: no record (%v)\n", name, seed, err)
				return 1
			}
			if !rs[0].Correct {
				status = 1
			}
			recs = append(recs, rs[0])
			if *out != "" {
				if err := appendRecord(*out, rs[0]); err != nil {
					fmt.Fprintln(os.Stderr, "ffbench steady:", err)
					return 1
				}
			}
		}
	}
	fmt.Printf("%-13s %-15s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			vals := metricValues(recs, w.Name, m.Name)
			q1, q3 := quartiles(vals)
			med := median(vals)
			note := ""
			if spread(vals) > m.Bound/3 && m.Name != "setup_s" {
				note = "  (over a third of the bound)"
			}
			fmt.Printf("%-13s %-15s %12.5g %12.5g %12.5g %8.4f %6.2f%s\n", w.Name, m.Name, med, q1, q3, spread(vals), m.Bound, note)
		}
	}
	return status
}

func appendRecord(path string, r record) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(r)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRecords picks the record lines out of benchmark output (other
// lines, such as the summary line, are skipped).
func readRecords(r io.Reader) ([]record, error) {
	var recs []record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if !bytes.Contains(line, []byte(`"schema":"`+recordSchema+`"`)) {
			continue
		}
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil {
			return nil, err
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

func metricValues(recs []record, workload, metric string) []float64 {
	var vals []float64
	for _, r := range recs {
		if r.Workload == workload && !r.Trace {
			if v, ok := r.Metrics[metric]; ok {
				vals = append(vals, float64(v.Value))
			}
		}
	}
	return vals
}

// spread is the interquartile range as a share of the median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return ratio(q3-q1, math.Abs(median(vals)))
}

// compareMain compares two sets of end-to-end records, metric by
// metric and workload by workload. It refuses sets whose workloads were
// run with different seeds or drew different corpora (the digests
// differ), since their medians would not measure the same work.
func compareMain(args []string, out io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: ffbench compare old.jsonl new.jsonl")
		return 2
	}
	sets := make([][]record, 2)
	for i, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ffbench compare:", err)
			return 1
		}
		sets[i], err = readRecords(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ffbench compare: %s: %v\n", path, err)
			return 1
		}
	}
	rows, err := compare(sets[0], sets[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ffbench compare:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(out, "%-13s %-15s %12s %12s %8s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, r := range rows {
		fmt.Fprintf(out, "%-13s %-15s %12.5g %12.5g %+8.4f %8.4f %6.2f  %s\n", r.workload, r.metric, r.old, r.new, r.change, r.spread, r.bound, r.verdict)
		if r.verdict == "worse" {
			status = 1
		}
	}
	return status
}

type comparison struct {
	workload, metric string
	old, new         float64 // medians
	change           float64 // relative change of the median, positive = worse
	spread, bound    float64
	verdict          string
}

// compare classifies each end-to-end metric of each workload:
//
//   - unresolved: the run-to-run spread of either side exceeds the
//     metric's bound, and neither side wins every pairing of runs;
//   - worse: the new median is worse by more than the bound;
//   - better: the new median is better by more than the old runs'
//     own spread;
//   - same: otherwise.
func compare(old, new []record) ([]comparison, error) {
	keys := func(recs []record) map[string]map[int64]string {
		m := map[string]map[int64]string{}
		for _, r := range recs {
			if r.Trace {
				continue
			}
			if m[r.Workload] == nil {
				m[r.Workload] = map[int64]string{}
			}
			m[r.Workload][r.Seed] = r.CorpusSHA256
		}
		return m
	}
	ko, kn := keys(old), keys(new)
	var names []string
	for name, seeds := range ko {
		other, ok := kn[name]
		if !ok {
			continue
		}
		if len(seeds) != len(other) {
			return nil, fmt.Errorf("%s: the two sets ran different seeds", name)
		}
		for seed, digest := range seeds {
			d, ok := other[seed]
			if !ok {
				return nil, fmt.Errorf("%s: seed %d was run by one set only", name, seed)
			}
			if d != digest {
				return nil, fmt.Errorf("%s seed %d: corpus digests differ (%.12s… vs %.12s…): the workload changed", name, seed, digest, d)
			}
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no workload appears in both sets")
	}
	sort.Strings(names)
	var rows []comparison
	for _, name := range names {
		for _, m := range endToEnd {
			ov, nv := metricValues(old, name, m.Name), metricValues(new, name, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				continue
			}
			c := comparison{workload: name, metric: m.Name, old: median(ov), new: median(nv), bound: m.Bound}
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			c.change = sign * ratio(c.new-c.old, math.Abs(c.old))
			c.spread = math.Max(spread(ov), spread(nv))
			allBetter, allWorse := true, true
			for _, a := range ov {
				for _, b := range nv {
					if sign*(b-a) >= 0 {
						allBetter = false
					}
					if sign*(b-a) <= 0 {
						allWorse = false
					}
				}
			}
			switch {
			case c.spread > m.Bound && allBetter:
				c.verdict = "better"
			case c.spread > m.Bound && allWorse:
				c.verdict = "worse"
			case c.spread > m.Bound:
				c.verdict = "unresolved"
			case c.change > m.Bound:
				c.verdict = "worse"
			case -c.change > spread(ov) && c.change < 0:
				c.verdict = "better"
			default:
				c.verdict = "same"
			}
			rows = append(rows, c)
		}
	}
	return rows, nil
}
