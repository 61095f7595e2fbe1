package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// TraceEventSink converts the registry's span/metric/record stream into
// Chrome trace-event JSON — the -trace-out format, openable directly in
// Perfetto (ui.perfetto.dev) or chrome://tracing. The whole run renders as
// a timeline:
//
//   - every root span opens its own track (a batch run's corpus.job spans
//     become one track per trace job);
//   - spans whose names are registered as track-opening (by default
//     core.score_bucket, so scoring workers get their own lanes) check a
//     track out of a per-name lane pool while running and return it when
//     they end — concurrent workers occupy distinct lanes, sequential ones
//     reuse them;
//   - all other spans nest on their parent's track as B/E duration events;
//   - metric updates (e.g. core.best_distance) and records (e.g.
//     core.best_improved, carrying the bucket ID) render as instant
//     events.
//
// Events buffer in memory and are written as one JSON object on Close
// (idempotent), so the output is always structurally complete.
type TraceEventSink struct {
	mu      sync.Mutex
	w       io.Writer
	c       io.Closer
	events  []traceEvent
	tids    map[uint64]int    // live span id → tid
	spanVia map[uint64]string // span id → lane-pool name (track-opening spans)
	tnames  map[int]string    // tid → thread_name
	free    map[string][]int  // lane pool: track name → returned tids
	laneN   map[string]int    // lane pool: track name → lanes created
	tracks  map[string]bool   // span names that open their own track
	nextTid int
	closed  bool
}

// traceEvent is one trace_event-format entry. Ts/Dur are microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// traceEventFile is the on-disk shape: the JSON Object Format of the
// trace-event spec.
type traceEventFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// NewTraceEventSink buffers trace events and writes them to w on Close
// (closing w too when it is an io.Closer). trackNames lists additional
// span names that open their own pooled track; the defaults cover the
// repository's batch-job and scoring-worker spans.
func NewTraceEventSink(w io.Writer, trackNames ...string) *TraceEventSink {
	s := &TraceEventSink{
		w:       w,
		tids:    map[uint64]int{},
		spanVia: map[uint64]string{},
		tnames:  map[int]string{},
		free:    map[string][]int{},
		laneN:   map[string]int{},
		tracks:  map[string]bool{"corpus.job": true, "core.score_bucket": true},
	}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	for _, n := range trackNames {
		s.tracks[n] = true
	}
	return s
}

// Emit implements Sink.
func (s *TraceEventSink) Emit(ev Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	ts := ev.T * 1e6
	switch ev.Kind {
	case KindSpanStart:
		tid := s.assignTid(ev)
		s.events = append(s.events, traceEvent{Name: ev.Name, Ph: "B", Ts: ts, Pid: 1, Tid: tid})
	case KindSpanEnd:
		tid, ok := s.tids[ev.Span]
		if !ok {
			// The span started before this sink attached; drop it rather
			// than invent an unbalanced E event.
			return
		}
		delete(s.tids, ev.Span)
		s.events = append(s.events, traceEvent{Name: ev.Name, Ph: "E", Ts: ts, Pid: 1, Tid: tid, Args: ev.Attrs})
		if lane, ok := s.spanVia[ev.Span]; ok {
			delete(s.spanVia, ev.Span)
			s.free[lane] = append(s.free[lane], tid)
		}
		// A root span that learned a better label at End time (corpus.job
		// sets a "trace" attr) renames its track.
		if name, ok := ev.Attrs["trace"].(string); ok && ev.Parent == 0 {
			s.tnames[tid] = name
		}
	case KindMetric:
		s.events = append(s.events, traceEvent{
			Name: ev.Name, Ph: "i", Ts: ts, Pid: 1, S: "g",
			Args: map[string]any{"value": ev.Value},
		})
	case KindRecord:
		args := map[string]any{}
		if ev.Data != nil {
			args["data"] = ev.Data
		}
		s.events = append(s.events, traceEvent{Name: ev.Name, Ph: "i", Ts: ts, Pid: 1, S: "g", Args: args})
	}
}

// assignTid picks the track for a starting span: an inherited parent
// track for ordinary children, a pooled lane for track-opening names, a
// fresh track for roots.
func (s *TraceEventSink) assignTid(ev Event) int {
	var tid int
	switch {
	case s.tracks[ev.Name]:
		if lanes := s.free[ev.Name]; len(lanes) > 0 {
			tid = lanes[len(lanes)-1]
			s.free[ev.Name] = lanes[:len(lanes)-1]
		} else {
			s.laneN[ev.Name]++
			tid = s.newTrack(fmt.Sprintf("%s lane %d", ev.Name, s.laneN[ev.Name]))
		}
		s.spanVia[ev.Span] = ev.Name
	case ev.Parent == 0:
		tid = s.newTrack(ev.Name)
	default:
		tid = s.tids[ev.Parent] // 0 (the root track) when unknown
	}
	s.tids[ev.Span] = tid
	return tid
}

// newTrack allocates the next tid and names it.
func (s *TraceEventSink) newTrack(name string) int {
	s.nextTid++
	s.tnames[s.nextTid] = name
	return s.nextTid
}

// Close writes the buffered timeline as trace-event JSON and closes the
// underlying writer. Subsequent Emits and Closes no-op.
func (s *TraceEventSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	file := traceEventFile{DisplayTimeUnit: "ms"}
	file.TraceEvents = append(file.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "abagnale"},
	})
	for tid := 1; tid <= s.nextTid; tid++ {
		name, ok := s.tnames[tid]
		if !ok {
			continue
		}
		file.TraceEvents = append(file.TraceEvents, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]any{"name": name},
		})
	}
	file.TraceEvents = append(file.TraceEvents, s.events...)
	enc := json.NewEncoder(s.w)
	err := enc.Encode(file)
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
