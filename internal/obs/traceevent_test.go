package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// decodeTrace parses a sink's output and indexes the structural pieces a
// Perfetto load depends on.
func decodeTrace(t *testing.T, raw []byte) (file traceEventFile, threadNames map[int]string) {
	t.Helper()
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("trace output not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	threadNames = map[int]string{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "B", "E", "M", "i", "X":
		default:
			t.Errorf("unknown phase %q in %+v", ev.Ph, ev)
		}
		if ev.Pid != 1 {
			t.Errorf("event off the single process: %+v", ev)
		}
		if ev.Ph == "M" && ev.Name == "thread_name" {
			threadNames[ev.Tid] = ev.Args["name"].(string)
		}
		if ev.Ph == "i" && ev.S != "g" {
			t.Errorf("instant event without global scope: %+v", ev)
		}
	}
	return file, threadNames
}

// TestTraceEventStructure runs a nested span tree with metrics and records
// through the sink and validates the output is structurally a Chrome
// trace-event file: named process, named tracks, balanced B/E pairs per
// track, instant events for improvements.
func TestTraceEventStructure(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.Attach(NewTraceEventSink(&buf))

	root := r.StartSpan("synthesize")
	it := root.Child("core.iteration")
	w := it.Child("core.score_bucket")
	w.SetAttr("ops", "add|mul").End()
	it.End()
	r.Metric("core.best_distance", 9.5)
	r.Record("core.best_improved", map[string]any{"bucket": "add|mul", "distance": 9.5})
	root.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	file, threadNames := decodeTrace(t, buf.Bytes())

	var processNamed bool
	depth := map[int]int{} // per-track open B count
	var instants []traceEvent
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name == "process_name" && ev.Args["name"] == "abagnale" {
				processNamed = true
			}
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
			if depth[ev.Tid] < 0 {
				t.Fatalf("E without matching B on tid %d: %+v", ev.Tid, ev)
			}
			if ev.Name == "core.score_bucket" && ev.Args["ops"] != "add|mul" {
				t.Errorf("span attrs not forwarded: %+v", ev)
			}
		case "i":
			instants = append(instants, ev)
		}
	}
	if !processNamed {
		t.Error("process_name metadata missing")
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("track %d has %d unbalanced B events", tid, d)
		}
	}
	// The root span opened its own named track; the scoring worker its lane.
	names := map[string]bool{}
	for _, n := range threadNames {
		names[n] = true
	}
	if !names["synthesize"] || !names["core.score_bucket lane 1"] {
		t.Errorf("track names = %v", threadNames)
	}
	// Both the metric update and the best-improvement record became instant
	// events, the record carrying its bucket annotation.
	var sawMetric, sawImproved bool
	for _, ev := range instants {
		switch ev.Name {
		case "core.best_distance":
			sawMetric = ev.Args["value"] == 9.5
		case "core.best_improved":
			data, _ := ev.Args["data"].(map[string]any)
			sawImproved = data["bucket"] == "add|mul"
		}
	}
	if !sawMetric || !sawImproved {
		t.Errorf("instant events incomplete (metric %v, improved %v): %+v", sawMetric, sawImproved, instants)
	}
}

// TestTraceEventLanePooling pins the worker-track strategy: concurrent
// track-opening spans occupy distinct lanes; sequential ones reuse the
// freed lane.
func TestTraceEventLanePooling(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.Attach(NewTraceEventSink(&buf))

	a := r.StartSpan("core.score_bucket")
	b := r.StartSpan("core.score_bucket") // concurrent with a: new lane
	a.End()
	b.End()
	c := r.StartSpan("core.score_bucket") // after both ended: reuses a lane
	c.End()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	file, threadNames := decodeTrace(t, buf.Bytes())
	lanes := map[int]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "B" {
			lanes[ev.Tid] = true
		}
	}
	if len(lanes) != 2 {
		t.Errorf("three sequentialish workers used %d lanes, want 2 (pool reuse)", len(lanes))
	}
	laneNames := 0
	for _, n := range threadNames {
		if n == "core.score_bucket lane 1" || n == "core.score_bucket lane 2" {
			laneNames++
		}
	}
	if laneNames != 2 {
		t.Errorf("lane names = %v", threadNames)
	}
}

// TestTraceEventConcurrentEmit drives the sink from several goroutines
// (-race coverage) and checks the result still decodes and balances.
func TestTraceEventConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	r := New()
	r.Attach(NewTraceEventSink(&buf))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := r.StartSpan("core.score_bucket")
				sp.Child("replay.score").End()
				sp.End()
				r.Metric("core.best_distance", float64(i))
			}
		}()
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	file, _ := decodeTrace(t, buf.Bytes())
	depth := map[int]int{}
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "B":
			depth[ev.Tid]++
		case "E":
			depth[ev.Tid]--
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("track %d unbalanced by %d after concurrent emit", tid, d)
		}
	}
}
