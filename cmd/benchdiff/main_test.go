package main

import (
	"bytes"
	"strings"
	"testing"
)

const benchOut = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor
BenchmarkScoreHandler-2   	    1000	   9735 ns/op	 112 B/op	   3 allocs/op
PASS
`

// TestParseBenchStampsHost pins the host stamp: the cpu header line and
// the GOMAXPROCS suffix, which is still stripped from benchmark names.
func TestParseBenchStampsHost(t *testing.T) {
	s, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	if s.Host == nil || *s.Host != (host{CPU: "Intel(R) Xeon(R) Processor", Procs: 2}) {
		t.Errorf("host = %+v", s.Host)
	}
	if s.Benchmarks["BenchmarkScoreHandler"]["ns/op"] != 9735 {
		t.Errorf("benchmarks = %v", s.Benchmarks)
	}

	// go test omits the suffix at GOMAXPROCS=1.
	one := strings.Replace(benchOut, "BenchmarkScoreHandler-2", "BenchmarkScoreHandler", 1)
	if s, err = parseBench(strings.NewReader(one)); err != nil || s.Host.Procs != 1 {
		t.Errorf("GOMAXPROCS=1 host = %+v, %v", s.Host, err)
	}
}

// TestDiffCrossHostNotice checks the diff header flags snapshots from
// different hosts and stays quiet for same-host or unstamped ones.
func TestDiffCrossHostNotice(t *testing.T) {
	cur, err := parseBench(strings.NewReader(benchOut))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		prev *host
		want bool
	}{
		{"same host", &host{CPU: "Intel(R) Xeon(R) Processor", Procs: 2}, false},
		{"other cpu", &host{CPU: "AMD EPYC", Procs: 2}, true},
		{"other core count", &host{CPU: "Intel(R) Xeon(R) Processor", Procs: 8}, true},
		{"unstamped", nil, false},
	} {
		prev := &snapshot{Host: tc.prev, Benchmarks: cur.Benchmarks}
		var out bytes.Buffer
		if n := diff(&out, prev, cur, "BENCH_prev.json", 0.2); n != 0 {
			t.Errorf("%s: %d regressions on identical metrics", tc.name, n)
		}
		if got := strings.Contains(out.String(), "cross-host comparison"); got != tc.want {
			t.Errorf("%s: notice printed = %t, want %t\n%s", tc.name, got, tc.want, out.String())
		}
	}
}

// TestParseBenchMedianOfRepeats pins the -count handling: repeated lines
// of one benchmark record each metric's median, not the last sample, so a
// single outlier cannot move the snapshot.
func TestParseBenchMedianOfRepeats(t *testing.T) {
	const repeated = `cpu: Intel(R) Xeon(R) Processor
BenchmarkScoreHandler-2   	    1000	   141 ns/op	 112 B/op	   3 allocs/op
BenchmarkScoreHandler-2   	    1000	   263 ns/op	 112 B/op	   3 allocs/op
BenchmarkScoreHandler-2   	    1000	   150 ns/op	 112 B/op	   3 allocs/op
BenchmarkScoreHandler-2   	    1000	   148 ns/op	 120 B/op	   3 allocs/op
BenchmarkScoreHandler-2   	    1000	   145 ns/op	 112 B/op	   3 allocs/op
BenchmarkOther-2          	      10	   500 ns/op
BenchmarkOther-2          	      10	   700 ns/op
PASS
`
	s, err := parseBench(strings.NewReader(repeated))
	if err != nil {
		t.Fatal(err)
	}
	got := s.Benchmarks["BenchmarkScoreHandler"]
	if got["ns/op"] != 148 || got["B/op"] != 112 || got["allocs/op"] != 3 {
		t.Errorf("ScoreHandler medians = %v, want ns/op 148, B/op 112, allocs/op 3", got)
	}
	if v := s.Benchmarks["BenchmarkOther"]["ns/op"]; v != 600 {
		t.Errorf("even-count median = %v, want 600", v)
	}
}
