package live

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"tquad/internal/obs"
)

// Options configures the telemetry server.
type Options struct {
	// Registry backs GET /metrics (scraped live, mid-run).  Nil serves an
	// empty exposition.
	Registry *obs.Registry
	// Tracker backs GET /events (its bus) and GET / (its snapshot).
	// Required.
	Tracker *Tracker
	// Chart, when non-nil, supplies the progress page's SVG bandwidth
	// chart of completed runs, re-rendered per request.
	Chart func() string
	// Title heads the progress page (defaults to "tquad").
	Title string
}

// Server is a running telemetry server.  Close stops it.
type Server struct {
	ln   net.Listener
	srv  *http.Server
	opts Options
}

// Bind binds a telemetry listen address ("host:port"; ":0" asks the
// kernel for an ephemeral port).  Factored out of Serve so other
// servers (the jobd daemon) and tests share the same bind semantics
// and error wrapping.
func Bind(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("live: listen %s: %w", addr, err)
	}
	return ln, nil
}

// ListenURL renders the listener's actually-bound address as a
// browsable base URL.  Wildcard binds (":0", "0.0.0.0:8080", "[::]")
// report an unspecified host, which no browser or client can dial; the
// loopback address is substituted so the printed URL is directly
// usable.
func ListenURL(ln net.Listener) string {
	addr := ln.Addr().String()
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if ip := net.ParseIP(host); host == "" || (ip != nil && ip.IsUnspecified()) {
		host = "127.0.0.1"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// Serve binds addr (e.g. "localhost:8080", ":0") and starts serving the
// telemetry endpoints in a background goroutine.
func Serve(addr string, o Options) (*Server, error) {
	if o.Tracker == nil {
		return nil, fmt.Errorf("live: Serve requires a Tracker")
	}
	if o.Title == "" {
		o.Title = "tquad"
	}
	ln, err := Bind(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, opts: o}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// A client that trickles its request headers is cut off rather than
	// holding a connection open indefinitely.
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL, with wildcard-bound hosts
// rewritten to loopback (see ListenURL).
func (s *Server) URL() string { return ListenURL(s.ln) }

// Close stops the server, severing open streams.
func (s *Server) Close() error { return s.srv.Close() }

// handleMetrics serves the registry in Prometheus text exposition
// format.  Registry reads are snapshot-based and lock-protected, so
// scraping mid-run is safe by construction.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.opts.Registry.WritePrometheus(w)
}

// handleEvents streams lifecycle events as SSE (default) or JSONL
// (?format=jsonl).  A new consumer first receives one synthetic event
// per tracked run — the current model state, so late joiners need no
// separate snapshot call — then the live feed until it disconnects or
// the server closes.  The feed is this subscriber's bounded bus
// subscription: a consumer that stops reading drops events rather than
// slowing the sweep.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	StreamEvents(w, r, s.opts.Tracker)
}

// StreamEvents serves one tracker's enriched lifecycle stream on an
// arbitrary handler's response — the multi-job analogue of /events, so
// the jobd daemon's per-job pages stream through exactly this code.
// It blocks until the client disconnects or the tracker's bus closes.
func StreamEvents(w http.ResponseWriter, r *http.Request, t *Tracker) {
	jsonl := r.URL.Query().Get("format") == "jsonl"
	if jsonl {
		w.Header().Set("Content-Type", "application/x-ndjson")
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	// Commit the response headers before the first event exists:
	// consumers attach to an idle server and block in their read loop,
	// not in the connection handshake.
	flusher, _ := w.(http.Flusher)
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	emit := func(ev obs.Event) bool {
		raw, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if jsonl {
			_, err = fmt.Fprintf(w, "%s\n", raw)
		} else {
			_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, raw)
		}
		if err != nil {
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}

	// Subscribe before snapshotting: an event published in between is
	// then duplicated (harmless — consumers key on Seq), never lost.
	sub := t.Bus().Subscribe()
	defer sub.Close()
	for _, rs := range t.Snapshot() {
		ev := obs.Event{
			Time: time.Now(), Type: rs.State, Key: rs.Key, Attempt: rs.Attempt,
			ICount: rs.ICount, Budget: rs.Budget, Rate: rs.Rate,
			ETASeconds: rs.ETASeconds, Err: rs.Err,
		}
		if !emit(ev) {
			return
		}
	}
	ctx := r.Context()
	for {
		select {
		case <-ctx.Done():
			return
		case ev, ok := <-sub.Events():
			if !ok {
				return
			}
			if !emit(ev) {
				return
			}
		}
	}
}

// handleIndex renders the progress page: sweep totals, the per-run
// table (state, progress, rate, ETA, stall flag) and the completed-runs
// bandwidth chart.  Pure server-side rendering with a meta refresh — no
// scripts, so it works from curl and any browser.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	runs := s.opts.Tracker.Snapshot()
	counts := map[string]int{}
	for _, rs := range runs {
		counts[rs.State]++
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!DOCTYPE html><html><head><meta charset="utf-8"><meta http-equiv="refresh" content="2">`+
		`<title>%s</title><style>
body{font-family:monospace;margin:1.5em;background:#fafafa}
table{border-collapse:collapse}
td,th{border:1px solid #ccc;padding:3px 8px;text-align:left}
th{background:#eee}
.bar{background:#ddd;width:120px;height:10px;display:inline-block}
.fill{background:#3a6ea5;height:10px;display:block}
.stalled{color:#b00;font-weight:bold}
.failed{color:#b00}.succeeded{color:#080}.running{color:#06c}
</style></head><body>`, html.EscapeString(s.opts.Title))
	fmt.Fprintf(w, `<h1>%s — live sweep progress</h1>`, html.EscapeString(s.opts.Title))
	fmt.Fprintf(w, `<p>%d runs: %d running, %d queued, %d retrying, %d succeeded, %d failed`,
		len(runs), counts[StateRunning], counts[StateQueued], counts[StateRetrying],
		counts[StateSucceeded], counts[StateFailed])
	if win := s.opts.Tracker.StallWindow(); win > 0 {
		fmt.Fprintf(w, ` — stall window %s`, win)
	}
	if d := s.opts.Tracker.Bus().Dropped(); d > 0 {
		fmt.Fprintf(w, ` — %d events dropped by slow consumers`, d)
	}
	fmt.Fprintf(w, `</p><p><a href="/metrics">/metrics</a> · <a href="/events">/events</a> · `+
		`<a href="/events?format=jsonl">/events?format=jsonl</a> · <a href="/debug/pprof/">/debug/pprof/</a></p>`)

	fmt.Fprintf(w, `<table><tr><th>run</th><th>state</th><th>attempt</th><th>progress</th><th>icount</th><th>rate</th><th>eta</th><th>note</th></tr>`)
	for _, rs := range runs {
		stateClass := rs.State
		stateText := rs.State
		if rs.Stalled {
			stateClass, stateText = "stalled", "stalled"
		}
		prog, progText := rs.Progress(), ""
		if prog >= 0 {
			progText = fmt.Sprintf(`<span class="bar"><span class="fill" style="width:%d%%"></span></span> %3.0f%%`,
				int(prog*100), prog*100)
		}
		rate, eta := "", ""
		if rs.Rate > 0 && rs.State == StateRunning {
			rate = fmt.Sprintf("%.3g instr/s", rs.Rate)
		}
		if rs.ETASeconds > 0 && rs.State == StateRunning {
			eta = (time.Duration(rs.ETASeconds*1000) * time.Millisecond).Truncate(100 * time.Millisecond).String()
		}
		note := rs.Err
		if rs.Checkpointed && note == "" {
			note = "checkpointed"
		}
		fmt.Fprintf(w, `<tr><td>%s</td><td class="%s">%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td><td>%s</td></tr>`,
			html.EscapeString(rs.Key), stateClass, stateText,
			attemptText(rs), progText, icountText(rs),
			rate, eta, html.EscapeString(note))
	}
	fmt.Fprintf(w, `</table>`)

	if s.opts.Chart != nil {
		fmt.Fprintf(w, `<h2>Completed runs</h2><div>%s</div>`, s.opts.Chart())
	}
	fmt.Fprintf(w, `</body></html>`)
}

func attemptText(rs RunState) string {
	if rs.Attempt == 0 {
		return ""
	}
	if rs.Retries > 0 {
		return fmt.Sprintf("%d (%d retries)", rs.Attempt, rs.Retries)
	}
	return fmt.Sprintf("%d", rs.Attempt)
}

func icountText(rs RunState) string {
	if rs.ICount == 0 {
		return ""
	}
	if rs.Budget > 0 {
		return fmt.Sprintf("%d / %d", rs.ICount, rs.Budget)
	}
	return fmt.Sprintf("%d", rs.ICount)
}
