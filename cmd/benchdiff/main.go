// Command benchdiff turns `go test -bench` text output into a JSON
// snapshot under bench/ and diffs it against the previous snapshot,
// failing loudly on performance regressions. It is the checker behind
// `make bench-compare`.
//
// Usage:
//
//	go test -bench=. -benchmem . | benchdiff -record
//	benchdiff bench/BENCH_20260801-120000.txt   # re-parse an old text file
//
// Flags:
//
//	-dir d         snapshot directory (default "bench")
//	-record        write the parsed run as bench/BENCH_<utc-ts>.json
//	-threshold f   regression tolerance as a fraction (default 0.20)
//
// A benchmark run several times (`go test -count N`, as `make
// bench-compare` does) is recorded as the median of its samples. Every
// benchmark present in both runs is compared on the cost metrics
// (ns/op, B/op, allocs/op, cells/op); a metric worse by more than the
// threshold is a regression and the exit status is 1. Sub-nanosecond
// ns/op movements are ignored as timer noise (nsNoiseFloor) so that the
// ~1-cycle fast-path benchmarks don't fail builds on code-alignment
// jitter. Other b.ReportMetric
// values (distances, ranks) are recorded but not judged — they are
// reproduction results, not costs. Each snapshot records the host it ran
// on (the `cpu:` header line and the GOMAXPROCS benchmark-name suffix);
// when the previous snapshot came from a different CPU or core count the
// diff header says so, since cross-host deltas are not regressions.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/obs"
)

// snapshot is the JSON shape of one recorded bench run. Build stamps the
// recording binary (module version + VCS revision) so archived snapshots
// stay attributable to a commit; Host stamps the machine.
type snapshot struct {
	Timestamp  string                        `json:"timestamp"`
	Build      *obs.BuildInfo                `json:"build,omitempty"`
	Host       *host                         `json:"host,omitempty"`
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

// host is the machine a run came from, as `go test -bench` reports it.
type host struct {
	CPU   string `json:"cpu"`
	Procs int    `json:"gomaxprocs"`
}

// costMetrics are the judged dimensions; everything else is informational.
var costMetrics = []string{"ns/op", "B/op", "allocs/op", "cells/op"}

// nsNoiseFloor is the minimum absolute ns/op movement for a regression.
// Percentage thresholds are meaningless at timer granularity: the obs
// nil-handle no-ops run in ~1 cycle, where code alignment or turbo state
// alone moves ns/op by half a nanosecond (a +90% "regression" on a 0.4 ns
// benchmark). Real kernels here cost microseconds; 2 ns is far below any
// regression worth failing a build over.
const nsNoiseFloor = 2.0

func main() {
	var (
		dir       = flag.String("dir", "bench", "snapshot directory")
		record    = flag.Bool("record", false, "write this run as a new JSON snapshot")
		threshold = flag.Float64("threshold", 0.20, "regression tolerance (fraction)")
	)
	c := cli.RegisterVersion("benchdiff", flag.CommandLine)
	flag.Parse()
	_, done := c.Setup() // handles -version
	defer func() { _ = done() }()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	cur, err := parseBench(in)
	if err != nil {
		fatal(err)
	}
	if len(cur.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}

	prev, prevName, err := latestSnapshot(*dir)
	if err != nil {
		fatal(err)
	}

	if *record {
		if err := writeSnapshot(*dir, cur); err != nil {
			fatal(err)
		}
	}

	if prev == nil {
		fmt.Printf("benchdiff: no previous snapshot in %s — nothing to compare (baseline %srecorded)\n",
			*dir, map[bool]string{true: "", false: "not "}[*record])
		return
	}

	regressions := diff(os.Stdout, prev, cur, prevName, *threshold)
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "\nbenchdiff: FAIL — %d metric(s) regressed by more than %.0f%%\n",
			regressions, *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("\nbenchdiff: OK — no cost metric regressed by more than %.0f%%\n", *threshold*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// parseBench extracts per-benchmark metrics from `go test -bench` output.
// Lines look like:
//
//	BenchmarkName-8   120   9735 ns/op   112 B/op   3 allocs/op   52 cells/op
//
// i.e. name, iteration count, then (value, unit) pairs. A benchmark that
// appears on several lines (`go test -count N`) records the median of its
// samples for each metric, so one noisy sample neither flags nor hides a
// regression.
func parseBench(r io.Reader) (*snapshot, error) {
	s := &snapshot{
		Timestamp:  time.Now().UTC().Format("20060102-150405"),
		Benchmarks: map[string]map[string]float64{},
	}
	if b := obs.ReadBuild(); b != (obs.BuildInfo{}) {
		s.Build = &b
	}
	var h host
	samples := map[string]map[string][]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if cpu, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			h.CPU = strings.TrimSpace(cpu)
			continue
		}
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// Strip the -GOMAXPROCS suffix so runs on different core counts
		// still line up. go test omits it when GOMAXPROCS is 1.
		name := fields[0]
		if h.Procs == 0 {
			h.Procs = 1
		}
		if i := strings.LastIndex(name, "-"); i > 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
				h.Procs = n
			}
			name = name[:i]
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			if samples[name] == nil {
				samples[name] = map[string][]float64{}
			}
			samples[name][fields[i+1]] = append(samples[name][fields[i+1]], v)
		}
	}
	for name, metrics := range samples {
		s.Benchmarks[name] = map[string]float64{}
		for unit, vs := range metrics {
			s.Benchmarks[name][unit] = median(vs)
		}
	}
	if h != (host{}) {
		s.Host = &h
	}
	return s, sc.Err()
}

// median returns the middle of vs (the mean of the two middle values for
// an even count). It sorts vs in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// latestSnapshot loads the newest BENCH_*.json in dir (timestamped names
// sort lexicographically), or nil when none exists yet.
func latestSnapshot(dir string) (*snapshot, string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, "", err
	}
	if len(names) == 0 {
		return nil, "", nil
	}
	sort.Strings(names)
	name := names[len(names)-1]
	raw, err := os.ReadFile(name)
	if err != nil {
		return nil, "", err
	}
	var s snapshot
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, "", fmt.Errorf("%s: %w", name, err)
	}
	return &s, filepath.Base(name), nil
}

// writeSnapshot records the run under dir with its own timestamp.
func writeSnapshot(dir string, s *snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	name := filepath.Join(dir, "BENCH_"+s.Timestamp+".json")
	if err := os.WriteFile(name, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchdiff: recorded %s\n", name)
	return nil
}

// diff prints the old-vs-new table for benchmarks present in both runs and
// returns how many cost metrics regressed beyond the threshold.
func diff(w io.Writer, prev, cur *snapshot, prevName string, threshold float64) int {
	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		if _, ok := prev.Benchmarks[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "comparing against %s (%d shared benchmarks)\n", prevName, len(names))
	if p, c := prev.Host, cur.Host; p != nil && c != nil && *p != *c {
		fmt.Fprintf(w, "cross-host comparison: previous run on %q (GOMAXPROCS %d), this run on %q (GOMAXPROCS %d)\n",
			p.CPU, p.Procs, c.CPU, c.Procs)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-34s %-10s %14s %14s %8s\n", "benchmark", "metric", "old", "new", "delta")
	regressions := 0
	for _, name := range names {
		old, new := prev.Benchmarks[name], cur.Benchmarks[name]
		for _, metric := range costMetrics {
			ov, okOld := old[metric]
			nv, okNew := new[metric]
			if !okOld || !okNew {
				continue
			}
			mark := ""
			if ov > 0 {
				delta := (nv - ov) / ov
				if delta > threshold && !(metric == "ns/op" && nv-ov < nsNoiseFloor) {
					mark = "  << REGRESSION"
					regressions++
				}
				fmt.Fprintf(w, "%-34s %-10s %14.1f %14.1f %+7.1f%%%s\n",
					name, metric, ov, nv, delta*100, mark)
			} else if nv > 0 {
				fmt.Fprintf(w, "%-34s %-10s %14.1f %14.1f     new\n", name, metric, ov, nv)
			}
		}
	}
	return regressions
}
