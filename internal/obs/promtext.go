package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// promSeries is one instrument key resolved to exposition terms.
type promSeries struct {
	fam string // sanitized family name
	key string // original registry key
}

// promSeriesOf sorts keys into exposition order: by sanitized family, then
// by key — so keys that sanitize to one family are consecutive and a
// single # TYPE line can head the group.
func promSeriesOf[V any](m map[string]V) []promSeries {
	out := make([]promSeries, 0, len(m))
	for k := range m {
		out = append(out, promSeries{fam: promName(k), key: k})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].fam != out[j].fam {
			return out[i].fam < out[j].fam
		}
		return out[i].key < out[j].key
	})
	return out
}

// WritePrometheus renders the registry's instruments in Prometheus text
// exposition format (version 0.0.4): counters first, then gauges, then
// histograms, each family sorted by name — byte-for-byte deterministic for
// a given set of instrument values, so two exposures of identical state
// diff cleanly (pinned by TestPrometheusDeterministic and the golden test).
//
// Dotted metric names are sanitized to the Prometheus grammar
// ("core.handlers_scored" → "core_handlers_scored"). Histograms emit the
// standard cumulative _bucket/_sum/_count series over the package's
// base-2 buckets (zero-delta buckets are elided; cumulative counts stay
// monotone) plus _p50/_p90/_p99 gauge estimates so dashboards without
// PromQL histogram_quantile still see tail latencies. A nil registry
// writes nothing.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	prev := ""
	for _, s := range promSeriesOf(counters) {
		if s.fam != prev {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", s.fam); err != nil {
				return err
			}
			prev = s.fam
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", s.fam, counters[s.key].Value()); err != nil {
			return err
		}
	}
	prev = ""
	for _, s := range promSeriesOf(gauges) {
		if s.fam != prev {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", s.fam); err != nil {
				return err
			}
			prev = s.fam
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.fam, promFloat(gauges[s.key].Value())); err != nil {
			return err
		}
	}
	series := promSeriesOf(hists)
	for i := 0; i < len(series); {
		j := i
		for j < len(series) && series[j].fam == series[i].fam {
			j++
		}
		if err := writePromHistogramFamily(w, series[i:j], hists); err != nil {
			return err
		}
		i = j
	}
	return nil
}

// writePromHistogramFamily renders every series of one histogram family:
// first all _bucket/_sum/_count samples (one consecutive run per family, as
// the exposition format requires), then the _p50/_p90/_p99 quantile gauge
// families across the same series.
func writePromHistogramFamily(w io.Writer, group []promSeries, hists map[string]*Histogram) error {
	name := group[0].fam
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	for _, s := range group {
		h := hists[s.key]
		st := h.Stats()
		var cum int64
		for i := 0; i < histBuckets; i++ {
			n := h.buckets[i].Load()
			if n == 0 {
				continue
			}
			cum += n
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, promFloat(bucketUpper(i)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
			name, cum, name, promFloat(st.Sum), name, st.Count); err != nil {
			return err
		}
	}
	for _, q := range []struct {
		suffix string
		pick   func(HistStats) float64
	}{
		{"_p50", func(s HistStats) float64 { return s.P50 }},
		{"_p90", func(s HistStats) float64 { return s.P90 }},
		{"_p99", func(s HistStats) float64 { return s.P99 }},
	} {
		wroteType := false
		for _, s := range group {
			st := hists[s.key].Stats()
			if st.Count == 0 {
				continue
			}
			if !wroteType {
				if _, err := fmt.Fprintf(w, "# TYPE %s%s gauge\n", name, q.suffix); err != nil {
					return err
				}
				wroteType = true
			}
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, q.suffix, promFloat(q.pick(st))); err != nil {
				return err
			}
		}
	}
	return nil
}

// promName maps a dotted instrument name onto the Prometheus metric-name
// grammar [a-zA-Z_:][a-zA-Z0-9_:]*.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteRune(c)
		case c >= '0' && c <= '9' && i > 0:
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a float the way Prometheus expects: the shortest
// round-trippable form ("+Inf"/"-Inf"/"NaN" are FormatFloat's own
// spellings, which match the exposition grammar).
func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
