package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestPrometheusGolden pins the /metrics exposition byte-for-byte for a
// small fixture registry: counters, gauges, then histograms with cumulative
// buckets, sum, count and the quantile-estimate gauges.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("dist.dtw_cells").Add(42)
	r.Gauge("core.best_distance").Set(2.5)
	h := r.Histogram("score.ms")
	h.Observe(0.5)
	h.Observe(1.0)
	h.Observe(2.0)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE dist_dtw_cells counter
dist_dtw_cells 42
# TYPE core_best_distance gauge
core_best_distance 2.5
# TYPE score_ms histogram
score_ms_bucket{le="1"} 1
score_ms_bucket{le="2"} 2
score_ms_bucket{le="4"} 3
score_ms_bucket{le="+Inf"} 3
score_ms_sum 3.5
score_ms_count 3
# TYPE score_ms_p50 gauge
score_ms_p50 2
# TYPE score_ms_p90 gauge
score_ms_p90 4
# TYPE score_ms_p99 gauge
score_ms_p99 4
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// promLine matches the exposition grammar this package emits: a comment, or
// metric-name[{le="bound"}] value.
var promLine = regexp.MustCompile(`^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]+"\})? ([+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?|[+-]Inf|NaN))$`)

// TestPrometheusGrammar renders a registry with awkward names and values
// and checks every line against the exposition grammar: sanitized names,
// monotone cumulative buckets, count consistency.
func TestPrometheusGrammar(t *testing.T) {
	r := New()
	r.Counter("replay.2nd-pass/cells").Add(7) // needs sanitizing
	r.Gauge("g").Set(-1.25e-9)
	h := r.Histogram("lat")
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 10)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "replay_2nd_pass_cells 7") {
		t.Errorf("name not sanitized:\n%s", out)
	}
	var lastCum, bucketSeries int64 = -1, 0
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("line violates exposition grammar: %q", line)
		}
		if strings.HasPrefix(line, "lat_bucket{") {
			bucketSeries++
			v, err := strconv.ParseInt(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < lastCum {
				t.Errorf("cumulative bucket counts not monotone at %q", line)
			}
			lastCum = v
		}
	}
	if bucketSeries == 0 {
		t.Fatal("no bucket series emitted")
	}
	if lastCum != 1000 {
		t.Errorf("final cumulative bucket = %d, want 1000 (the count)", lastCum)
	}
	if !strings.Contains(out, "lat_count 1000") {
		t.Errorf("histogram count missing:\n%s", out)
	}
}

// TestPrometheusDeterministic is the rendering-determinism regression test:
// two exposures of the same registry state — and two encodings of the same
// report — must be byte-identical, regardless of map iteration order.
func TestPrometheusDeterministic(t *testing.T) {
	r := New()
	// Enough instruments that map-order leakage would be caught with
	// overwhelming probability.
	for i := 0; i < 40; i++ {
		r.Counter(fmt.Sprintf("c.%02d", i)).Add(int64(i))
		r.Gauge(fmt.Sprintf("g.%02d", i)).Set(float64(i) / 3)
		r.Histogram(fmt.Sprintf("h.%02d", i)).Observe(float64(i + 1))
	}
	var a, b bytes.Buffer
	if err := r.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two exposures of identical state differ")
	}

	var ra, rb bytes.Buffer
	if err := r.Report().Encode(&ra); err != nil {
		t.Fatal(err)
	}
	if err := r.Report().Encode(&rb); err != nil {
		t.Fatal(err)
	}
	// Reports embed wall-clock duration; strip the one volatile line.
	strip := func(s string) string {
		return regexp.MustCompile(`"duration_sec":[^,\n]*`).ReplaceAllString(s, `"duration_sec":0`)
	}
	if strip(ra.String()) != strip(rb.String()) {
		t.Errorf("two report encodings of identical state differ:\n%s\n---\n%s", ra.String(), rb.String())
	}

	// A nil registry writes nothing and does not error.
	var nilReg *Registry
	var n bytes.Buffer
	if err := nilReg.WritePrometheus(&n); err != nil || n.Len() != 0 {
		t.Errorf("nil registry exposition = %q, %v", n.String(), err)
	}
}
