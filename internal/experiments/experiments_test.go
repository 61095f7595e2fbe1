package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dsl"
)

func TestCollectDataset(t *testing.T) {
	ds, err := Collect("reno", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Traces) != 2 || len(ds.Configs) != 2 {
		t.Fatalf("traces/configs = %d/%d, want 2/2", len(ds.Traces), len(ds.Configs))
	}
	if len(ds.Segments) < 2 {
		t.Fatalf("segments = %d", len(ds.Segments))
	}
	// Cached: second call returns the same pointer.
	ds2, err := Collect("reno", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if ds2 != ds {
		t.Error("dataset cache missed")
	}
}

func TestTable2QuickReno(t *testing.T) {
	rows, err := Table2([]string{"reno"}, QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	r := rows[0]
	if r.Err != nil {
		t.Fatalf("synthesis failed: %v", r.Err)
	}
	if r.DSLName != "reno" {
		t.Errorf("DSL hint = %q", r.DSLName)
	}
	if r.Synthesized == "" || math.IsInf(r.SynthDistance, 1) {
		t.Errorf("bad synthesized result: %q / %v", r.Synthesized, r.SynthDistance)
	}
	if r.FineTuned == "" || math.IsNaN(r.FineDistance) {
		t.Errorf("missing fine-tuned comparison: %q / %v", r.FineTuned, r.FineDistance)
	}
	// Key Table 2 property for the Reno family: the synthesized handler's
	// distance is close to (or better than) the fine-tuned handler's.
	if r.SynthDistance > 3*r.FineDistance+10 {
		t.Errorf("synthesized %.1f much worse than fine-tuned %.1f", r.SynthDistance, r.FineDistance)
	}
	out := FormatTable2(rows)
	if !strings.Contains(out, "reno") {
		t.Error("FormatTable2 lost the row")
	}
	t.Logf("\n%s", out)
}

// TestTable2QuickGolden pins the quick-scale Table 2 winners of a cheap
// subset — handler string and summed distance to 6 significant digits —
// so a refactor of the search, scoring or evaluation layers cannot
// silently change a Table 2 row.
func TestTable2QuickGolden(t *testing.T) {
	want := map[string]struct{ handler, distance string }{
		"reno":     {"cwnd + reno-inc", "12.9217"},
		"vegas":    {"rtt*ack-rate", "10.4904"},
		"student4": {"mss + acked + acked", "0.0560043"},
	}
	rows, err := Table2([]string{"reno", "vegas", "student4"}, QuickScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: synthesis failed: %v", r.CCA, r.Err)
			continue
		}
		w := want[r.CCA]
		if got := fmt.Sprintf("%.6g", r.SynthDistance); r.Synthesized != w.handler || got != w.distance {
			t.Errorf("%s: got %q at %s, want %q at %s", r.CCA, r.Synthesized, got, w.handler, w.distance)
		}
	}
}

func TestTable2CCAList(t *testing.T) {
	ccas := Table2CCAs()
	if len(ccas) != 21 {
		t.Errorf("Table2CCAs = %d entries, want 21 (16 kernel - cdg - highspeed + 7 students)", len(ccas))
	}
	for _, c := range ccas {
		if c == "cdg" || c == "highspeed" {
			t.Errorf("out-of-scope CCA %q in Table 2 list", c)
		}
	}
}

func TestFig3Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	points, err := Fig3(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	sums := SummarizeFig3(points)
	if len(sums) != 4 {
		t.Fatalf("metrics = %d, want 4", len(sums))
	}
	var dtw, euc Fig3Summary
	for _, s := range sums {
		if s.TotalN == 0 {
			t.Errorf("%s: empty sweep", s.Metric)
		}
		switch s.Metric {
		case "dtw":
			dtw = s
		case "euclidean":
			euc = s
		}
	}
	// The paper's Figure 3 finding: DTW stays correct over at least as
	// wide an error band as Euclidean.
	if dtw.CorrectN < euc.CorrectN {
		t.Errorf("DTW correct cells (%d) below Euclidean (%d)", dtw.CorrectN, euc.CorrectN)
	}
	t.Logf("\n%s", FormatFig3(sums))
}

func TestScaleConstants(t *testing.T) {
	h := Fig3Handlers()["reno"]
	scaled := ScaleConstants(h, 2)
	if h.Equal(scaled) {
		t.Error("scaling changed nothing")
	}
	if !h.Equal(ScaleConstants(h, 1)) {
		t.Error("scaling by 1 is not identity")
	}
}

func TestFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("case study")
	}
	r, err := Fig4(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.SynthWins+r.FineWins == 0 {
		t.Fatal("no comparable segments")
	}
	t.Logf("\n%s", FormatFig4(r))
}

func TestFig5Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("case study")
	}
	r, err := Fig5(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(r.RenoDistance, 1) || math.IsInf(r.FineDistance, 1) {
		t.Fatal("handler diverged on HTCP traces")
	}
	// Figure 5's point: the plain Reno handler is a close match on HTCP
	// traces (within ~50% of the fine-tuned distance in the paper; allow
	// slack for our substrate).
	if r.RenoDistance > 3*r.FineDistance {
		t.Errorf("reno handler (%.1f) not a near match to fine-tuned (%.1f)",
			r.RenoDistance, r.FineDistance)
	}
	t.Logf("\n%s", FormatFig5(r))
}

func TestFig6DSLVariants(t *testing.T) {
	for _, label := range Fig6Labels() {
		d := fig6DSL(label)
		if d.MaxNodes != 7 && d.MaxNodes != 11 {
			t.Errorf("%s: nodes = %d", label, d.MaxNodes)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown label did not panic")
		}
	}()
	fig6DSL("nope")
}

func TestEfficiencyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis run")
	}
	r, err := Efficiency(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if r.SpaceSketches < 100 {
		t.Errorf("space = %d", r.SpaceSketches)
	}
	if r.Buckets < 5 {
		t.Errorf("buckets = %d", r.Buckets)
	}
	if r.FractionExplored <= 0 {
		t.Errorf("fraction explored = %v", r.FractionExplored)
	}
	t.Logf("\n%s", FormatEfficiency(r))
}

func TestGridSeedsDistinct(t *testing.T) {
	s := FullScale()
	seen := map[int64]bool{}
	for _, cfg := range s.Grid("reno") {
		if seen[cfg.Seed] {
			t.Fatal("duplicate grid seed")
		}
		seen[cfg.Seed] = true
	}
	if len(seen) != 9 {
		t.Errorf("full grid = %d scenarios, want 9", len(seen))
	}
}

func TestFormatTable4(t *testing.T) {
	out := FormatTable4([]Table4Row{
		{CCA: "bbr", Rank1: 4, Total1: 127, Rank2: 3, Total2: 5},
		{CCA: "cubic", Rank1: 7, Total1: 27},
	})
	if !strings.Contains(out, "4/127") || !strings.Contains(out, "7/27") {
		t.Errorf("format lost ranks:\n%s", out)
	}
}

func TestAblationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("five synthesis runs")
	}
	s := QuickScale()
	s.MaxHandlers = 3000 // keep the five variants quick
	rows, err := Ablation("reno", s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("variants = %d, want 5", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Variant, r.Err)
			continue
		}
		if math.IsInf(r.Distance, 1) || r.Handler == "" {
			t.Errorf("%s: unusable result %q/%v", r.Variant, r.Handler, r.Distance)
		}
	}
	t.Logf("\n%s", FormatAblation("reno", rows))
}

func TestWriteFigureArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	dir := t.TempDir()
	if err := WriteFigureArtifacts(dir, QuickScale()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig3.csv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 10 || !strings.HasPrefix(lines[0], "metric,error,") {
		t.Errorf("fig3.csv malformed: %d lines, header %q", len(lines), lines[0])
	}
	if _, err := os.Stat(filepath.Join(dir, "fig4-segment-0.csv")); err != nil {
		t.Errorf("fig4 artifact missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5-segment.csv")); err != nil {
		t.Errorf("fig5 artifact missing: %v", err)
	}
}

func TestSegmentReplayCSV(t *testing.T) {
	ds, err := Collect("reno", QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	data, err := SegmentReplayCSV(ds.Segments[0], map[string]*dsl.Node{
		"reno": dsl.MustParse("cwnd + reno-inc"),
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if lines[0] != "time_s,observed_mss,reno" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != len(ds.Segments[0].Samples)+1 {
		t.Errorf("rows = %d, want %d", len(lines)-1, len(ds.Segments[0].Samples))
	}
}
