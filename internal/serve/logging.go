package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"haste/internal/obs"
)

// This file is the request-logging middleware: every request gets a fresh
// trace id (obs.NewID) that is returned in the X-Trace-Id response header,
// stored in the request context for handlers (the session lifecycle logs
// and traced responses echo it), and attached to the structured access-log
// line emitted when the handler returns. The logger defaults to discard
// (Config.Logger), so an unconfigured server logs nothing and pays only
// the slog Enabled check per request.

// traceIDKey is the context key under which the per-request trace id is
// stored.
type traceIDKey struct{}

// withTraceID returns ctx carrying the request's trace id.
func withTraceID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, traceIDKey{}, id)
}

// traceIDFrom returns the request's trace id, or "" outside the
// middleware (direct handler invocations in tests).
func traceIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(traceIDKey{}).(string)
	return id
}

// statusWriter captures the response status for the access log while
// delegating everything else to the wrapped ResponseWriter. Flush is
// forwarded so the SSE subscribe stream keeps working through the
// wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if fl, ok := w.ResponseWriter.(http.Flusher); ok {
		fl.Flush()
	}
}

// Status returns the recorded status: what WriteHeader recorded (or
// statusClientGone, which solveRoute sets for a request whose client went
// away), or 200 if the handler wrote nothing explicit.
func (w *statusWriter) Status() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

// serveLogged is the ServeHTTP body: assign the trace id, expose it on the
// response, run the mux through the status-capturing writer, then record
// the status — once, for both /metrics and the access log — and emit one
// access-log line. A server-sent event stream is therefore counted when
// it ends.
func (s *Server) serveLogged(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	id := obs.NewID()
	w.Header().Set("X-Trace-Id", id)
	sw := &statusWriter{ResponseWriter: w}
	r = r.WithContext(withTraceID(r.Context(), id))
	s.mux.ServeHTTP(sw, r)
	status := sw.Status()
	s.met.recordStatus(status)
	s.cfg.Logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
		slog.String("trace_id", id),
		slog.String("method", r.Method),
		slog.String("path", r.URL.Path),
		slog.Int("status", status),
		slog.Float64("elapsed_ms", float64(time.Since(t0))/float64(time.Millisecond)),
	)
}
