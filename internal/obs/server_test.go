package obs

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// liveFixture builds a registry resembling a mid-flight batch run: live
// metrics, two board entries, and a flight recorder with history.
func liveFixture() *Registry {
	r := New()
	r.EnableFlight(128)
	r.Counter("core.handlers_scored").Add(4096)
	r.Gauge("core.best_distance").Set(12.75)
	r.Histogram("replay.score_ms").Observe(1.5)
	run := r.Board().Start("traces/reno-01.pcap", 120000)
	run.SetPhase("score")
	run.SetIteration(3)
	run.AddHandlers(4096)
	run.SetBest(12.75, "cwnd + 1/cwnd")
	r.Board().Start("traces/reno-02.pcap", 120000).SetPhase("queued")
	r.StartSpan("core.iteration").End()
	return r
}

// TestServerEndpoints drives every non-streaming endpoint through the real
// mux: content types, JSON shapes, name matching, 404s.
func TestServerEndpoints(t *testing.T) {
	r := liveFixture()
	srv := httptest.NewServer(r.Handler(nil))
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var sb strings.Builder
		if _, err := bufio.NewReader(resp.Body).WriteTo(&sb); err != nil {
			t.Fatalf("GET %s read: %v", path, err)
		}
		resp.Body.Close()
		return resp, sb.String()
	}

	resp, body := get("/metrics")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content type = %q", ct)
	}
	if !strings.Contains(body, "core_handlers_scored 4096") ||
		!strings.Contains(body, "core_best_distance 12.75") ||
		!strings.Contains(body, "replay_score_ms_count 1") {
		t.Errorf("/metrics missing instruments:\n%s", body)
	}
	if !strings.Contains(body, "go_sched_goroutines_goroutines") ||
		!strings.Contains(body, "go_memory_classes_heap_objects_bytes") ||
		!strings.Contains(body, "go_gc_pauses_seconds_count") ||
		!strings.Contains(body, "go_sched_latencies_seconds_p99") {
		t.Errorf("/metrics missing Go runtime telemetry:\n%s", body)
	}

	resp, body = get("/healthz")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/healthz content type = %q", ct)
	}
	var health Health
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("/healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" {
		t.Errorf("/healthz status = %q, want ok", health.Status)
	}
	if health.Build.GoVersion == "" {
		t.Errorf("/healthz missing build info: %+v", health)
	}
	if health.Runs != 2 || health.ActiveRuns != 2 {
		t.Errorf("/healthz run counts = %d/%d, want 2/2", health.ActiveRuns, health.Runs)
	}

	resp, body = get("/runs")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("/runs content type = %q", ct)
	}
	var runs []RunSnapshot
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, body)
	}
	if len(runs) != 2 || runs[0].Name != "traces/reno-01.pcap" || runs[1].Phase != "queued" {
		t.Errorf("/runs = %+v", runs)
	}
	if runs[0].Phase != "score" || runs[0].Iteration != 3 || runs[0].HandlersScored != 4096 {
		t.Errorf("live run snapshot = %+v", runs[0])
	}
	if runs[0].BestDistance == nil || *runs[0].BestDistance != 12.75 || runs[0].BestHandler != "cwnd + 1/cwnd" {
		t.Errorf("best not published: %+v", runs[0])
	}
	if runs[0].CandidatesPerSec <= 0 || runs[0].ETASec == nil || *runs[0].ETASec <= 0 {
		t.Errorf("rate/ETA not derived: %+v", runs[0])
	}

	// One run by base name (the registered name is a path).
	_, body = get("/runs/reno-01.pcap")
	var one RunSnapshot
	if err := json.Unmarshal([]byte(body), &one); err != nil || one.Name != "traces/reno-01.pcap" {
		t.Errorf("/runs/{name} = %+v (%v)", one, err)
	}
	if resp, _ = get("/runs/nope.pcap"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/runs/nope.pcap status = %d, want 404", resp.StatusCode)
	}

	// The funnel endpoint 404s until the run publishes, then serves the
	// published value verbatim (by full or base name).
	if resp, _ = get("/runs/reno-01.pcap/funnel"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("funnel before publish status = %d, want 404", resp.StatusCode)
	}
	r.Board().Start("traces/reno-01.pcap", 0).SetFunnel(map[string]any{"enumerated": 42.0})
	_, body = get("/runs/reno-01.pcap/funnel")
	var funnel map[string]any
	if err := json.Unmarshal([]byte(body), &funnel); err != nil || funnel["enumerated"] != 42.0 {
		t.Errorf("/runs/{name}/funnel = %v (%v)", funnel, err)
	}
	if resp, _ = get("/runs/nope.pcap/funnel"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("funnel for unknown run status = %d, want 404", resp.StatusCode)
	}

	_, body = get("/flight")
	var ev FlightEvent
	if err := json.Unmarshal([]byte(strings.Split(strings.TrimSpace(body), "\n")[0]), &ev); err != nil {
		t.Errorf("/flight first line not a flight event: %v\n%s", err, body)
	}

	if resp, _ = get("/events"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("/events without hub status = %d, want 503", resp.StatusCode)
	}

	_, body = get("/")
	if !strings.Contains(body, "/metrics") || !strings.Contains(body, "/flight") {
		t.Errorf("index missing endpoint listing:\n%s", body)
	}
	if resp, _ = get("/not-a-page"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}

	if resp, _ = get("/debug/pprof/cmdline"); resp.StatusCode != http.StatusOK {
		t.Errorf("pprof cmdline status = %d", resp.StatusCode)
	}
}

// TestServerSSE is the live-stream smoke test: subscribe over real HTTP,
// emit an event through the hub, and read it back as an SSE data frame.
func TestServerSSE(t *testing.T) {
	r := liveFixture()
	hub := NewEventHub()
	r.Attach(hub)
	srv, err := Serve("127.0.0.1:0", r, hub)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}

	// The emitting side races the subscriber registration; keep emitting
	// until the frame arrives.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				r.Metric("core.best_distance", 11.5)
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(5 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "data: ") {
				got <- strings.TrimPrefix(line, "data: ")
				return
			}
		}
	}()
	select {
	case frame := <-got:
		var ev Event
		if err := json.Unmarshal([]byte(frame), &ev); err != nil {
			t.Fatalf("SSE frame not JSON: %v\n%s", err, frame)
		}
		if ev.Kind != KindMetric || ev.Name != "core.best_distance" || ev.Value != 11.5 {
			t.Errorf("SSE event = %+v", ev)
		}
	case <-deadline:
		t.Fatal("no SSE data frame within 5s")
	}
}

// TestEventHubDropsSlowSubscriber pins the no-backpressure contract: a full
// subscriber buffer drops events instead of blocking Emit.
func TestEventHubDropsSlowSubscriber(t *testing.T) {
	hub := NewEventHub()
	ch, cancel := hub.Subscribe(2)
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			hub.Emit(Event{Kind: KindMetric, Value: float64(i)})
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Emit blocked on a slow subscriber")
	}
	if n := len(ch); n != 2 {
		t.Errorf("buffered %d events, want the 2 that fit", n)
	}
	cancel()
	cancel() // idempotent
	if err := hub.Close(); err != nil {
		t.Errorf("hub close: %v", err)
	}
	// Subscribing after close yields a closed channel, not a hang.
	ch2, cancel2 := hub.Subscribe(1)
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Error("subscribe after close returned a live channel")
	}
}

// TestEventHubSlowSubscriberDoesNotStarveFast: drops are per-subscriber —
// a stalled listener loses its own events while a draining one sees all
// of them.
func TestEventHubSlowSubscriberDoesNotStarveFast(t *testing.T) {
	hub := NewEventHub()
	defer hub.Close()
	slow, cancelSlow := hub.Subscribe(1)
	defer cancelSlow()
	fast, cancelFast := hub.Subscribe(128)
	defer cancelFast()

	const n = 100
	received := make(chan int, 1)
	go func() {
		got := 0
		for range fast {
			if got++; got == n {
				received <- got
				return
			}
		}
		received <- got
	}()
	for i := 0; i < n; i++ {
		hub.Emit(Event{Kind: KindMetric, Value: float64(i)})
	}
	select {
	case got := <-received:
		if got != n {
			t.Errorf("fast subscriber saw %d/%d events", got, n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("fast subscriber starved behind a stalled one")
	}
	if len(slow) != 1 {
		t.Errorf("slow subscriber buffered %d events, want its 1-slot fill", len(slow))
	}
}
