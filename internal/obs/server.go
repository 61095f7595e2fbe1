package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strings"
	"sync"
	"time"
)

// EventHub fans the registry's event stream out to live subscribers (the
// /events SSE endpoint). Emit never blocks: a subscriber that falls
// behind its buffer drops events rather than stalling the run — the
// observability layer must never apply backpressure to the search.
type EventHub struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{}
	closed bool
}

// NewEventHub returns an empty hub.
func NewEventHub() *EventHub {
	return &EventHub{subs: map[chan Event]struct{}{}}
}

// Emit implements Sink.
func (h *EventHub) Emit(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop
		}
	}
}

// Subscribe registers a listener with the given buffer size. The cancel
// func unregisters it and closes the channel.
func (h *EventHub) Subscribe(buf int) (<-chan Event, func()) {
	ch := make(chan Event, buf)
	h.mu.Lock()
	if h.closed {
		close(ch)
		h.mu.Unlock()
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// Close implements Sink: it unregisters and closes every subscriber.
func (h *EventHub) Close() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.closed = true
	for ch := range h.subs {
		delete(h.subs, ch)
		close(ch)
	}
	return nil
}

// Mount attaches an extra handler subtree to the observability mux —
// how the synthesis service exposes its /api/v1 job endpoints on the
// same port as /metrics and /runs without obs importing the service.
type Mount struct {
	// Pattern is a ServeMux pattern ("/api/v1/" mounts a subtree).
	Pattern string
	// Handler serves the subtree.
	Handler http.Handler
}

// Handler builds the live observability mux for the registry:
//
//	/            endpoint index
//	/metrics     Prometheus text exposition of the registry
//	/runs        JSON array of live per-trace run state (the Board)
//	/runs/{name} one run, matched by full name or base name
//	/events      Server-Sent Events stream of the registry's event flow
//	/flight      flight-recorder dump (JSONL, oldest first)
//	/debug/pprof the standard pprof surface
//
// hub may be nil, in which case /events reports 503; callers that want a
// live stream attach the hub to the registry themselves (Flags.Setup
// does). The handler is safe to serve during a run — every view is a
// lock-light snapshot.
func (r *Registry) Handler(hub *EventHub, mounts ...Mount) http.Handler {
	mux := http.NewServeMux()
	var extra strings.Builder
	for _, m := range mounts {
		fmt.Fprintf(&extra, "%-21s mounted subtree\n", m.Pattern)
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "abagnale live observability\n\n"+
			"/metrics             Prometheus text exposition (+ Go runtime)\n"+
			"/healthz             readiness + build info (JSON)\n"+
			"/runs                live batch state (JSON)\n"+
			"/runs/{name}         one trace's live state\n"+
			"/runs/{name}/funnel  one trace's pruning funnel (JSON)\n"+
			"/events              SSE event stream\n"+
			"/flight              flight-recorder dump (JSONL)\n"+
			"/debug/pprof         pprof\n"+
			extra.String())
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
		_ = WriteRuntimeMetrics(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, healthSnapshot(r))
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, req *http.Request) {
		writeJSON(w, r.Board().Snapshots())
	})
	mux.HandleFunc("/runs/", func(w http.ResponseWriter, req *http.Request) {
		name := strings.TrimPrefix(req.URL.Path, "/runs/")
		if un, err := url.PathUnescape(name); err == nil {
			name = un
		}
		if base, ok := strings.CutSuffix(name, "/funnel"); ok {
			funnel, ok := r.Board().FunnelOf(base)
			if !ok {
				http.NotFound(w, req)
				return
			}
			writeJSON(w, funnel)
			return
		}
		snap, ok := r.Board().Get(name)
		if !ok {
			http.NotFound(w, req)
			return
		}
		writeJSON(w, snap)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
		_ = r.Flight().WriteJSONL(w)
	})
	mux.HandleFunc("/events", func(w http.ResponseWriter, req *http.Request) {
		serveSSE(w, req, hub)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for _, m := range mounts {
		mux.Handle(m.Pattern, m.Handler)
	}
	return mux
}

// procStart anchors the /healthz uptime to process start (package init).
var procStart = time.Now()

// Health is the /healthz payload: a readiness flag plus enough identity —
// build info, uptime, run counts — for a smoke test or orchestrator probe
// to tell which binary it reached and whether work is progressing.
type Health struct {
	Status     string    `json:"status"`
	Build      BuildInfo `json:"build"`
	UptimeSec  float64   `json:"uptime_sec"`
	Runs       int       `json:"runs"`
	ActiveRuns int       `json:"active_runs"`
}

// healthSnapshot assembles the current health view. The server answers as
// soon as its listener is bound, so Status is unconditionally "ok" — the
// probe's signal is reaching the endpoint at all.
func healthSnapshot(r *Registry) Health {
	h := Health{
		Status:    "ok",
		Build:     ReadBuild(),
		UptimeSec: time.Since(procStart).Seconds(),
	}
	for _, snap := range r.Board().Snapshots() {
		h.Runs++
		if !snap.Done {
			h.ActiveRuns++
		}
	}
	return h
}

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// serveSSE streams hub events to one subscriber until it disconnects or
// the hub closes.
func serveSSE(w http.ResponseWriter, req *http.Request, hub *EventHub) {
	if hub == nil {
		http.Error(w, "event hub not attached", http.StatusServiceUnavailable)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	fmt.Fprint(w, ": abagnale event stream\n\n")
	fl.Flush()
	ch, cancel := hub.Subscribe(256)
	defer cancel()
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				return
			}
			b, err := json.Marshal(ev)
			if err != nil {
				continue
			}
			if _, err := fmt.Fprintf(w, "data: %s\n\n", b); err != nil {
				return
			}
			fl.Flush()
		case <-req.Context().Done():
			return
		}
	}
}

// Server is a live observability HTTP server bound to one registry.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Serve starts the registry's observability server on addr (host:port;
// ":0" picks a free port — read the result's Addr). It returns once the
// listener is bound; serving continues in a background goroutine until
// Close.
func Serve(addr string, r *Registry, hub *EventHub, mounts ...Mount) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: r.Handler(hub, mounts...)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{srv: srv, ln: ln}, nil
}

// Addr returns the server's bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, giving in-flight requests (including open
// SSE streams) a short grace period before forcing the close.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
