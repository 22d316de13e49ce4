package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"haste/internal/obs"
)

func rootNamed(nodes []*obs.Node, name string) *obs.Node {
	for _, n := range nodes {
		if n.Name == name {
			return n
		}
	}
	return nil
}

// A traced schedule request returns the phase forest — decode, slot
// acquisition, problem resolution, and the core solve subtree — with a
// trace id matching the X-Trace-Id header, root durations summing to
// within the request's measured latency, and a schedule bit-identical to
// the untraced request.
func TestScheduleTraced(t *testing.T) {
	s := New(Config{})
	raw := instanceJSON(t, testInstance(t, 41))

	var plain scheduleResponse
	rec := post(s, "/v1/schedule", requestBody(t, raw, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("untraced status %d: %s", rec.Code, rec.Body.Bytes())
	}
	decodeResponse(t, rec.Body.Bytes(), &plain)
	if plain.TraceID != "" || plain.Trace != nil {
		t.Fatal("untraced response carries trace fields")
	}
	if rec.Header().Get("X-Trace-Id") == "" {
		t.Fatal("untraced response missing X-Trace-Id")
	}

	t0 := time.Now()
	rec = post(s, "/v1/schedule", requestBody(t, raw, map[string]any{"trace": true}))
	wallMS := float64(time.Since(t0)) / float64(time.Millisecond)
	if rec.Code != http.StatusOK {
		t.Fatalf("traced status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var traced scheduleResponse
	decodeResponse(t, rec.Body.Bytes(), &traced)

	if err := schedulesEqual(plain.Schedule, traced.Schedule); err != nil {
		t.Fatalf("traced schedule diverges: %v", err)
	}
	if traced.RUtility != plain.RUtility {
		t.Fatalf("traced utility %v != untraced %v", traced.RUtility, plain.RUtility)
	}
	if traced.TraceID == "" || traced.TraceID != rec.Header().Get("X-Trace-Id") {
		t.Fatalf("trace id %q does not match X-Trace-Id %q",
			traced.TraceID, rec.Header().Get("X-Trace-Id"))
	}
	for _, phase := range []string{"decode", "acquire_slot", "resolve_problem", "solve"} {
		if rootNamed(traced.Trace, phase) == nil {
			t.Fatalf("missing %s root span: %+v", phase, traced.Trace)
		}
	}
	// This instance was compiled by the untraced request above, so the
	// resolve span must report a cache hit.
	if rootNamed(traced.Trace, "resolve_problem").Attrs["cache_hit"] != 1 {
		t.Errorf("resolve_problem not a cache hit: %v", rootNamed(traced.Trace, "resolve_problem").Attrs)
	}
	if rootNamed(traced.Trace, "solve").Children == nil {
		t.Errorf("solve root has no phase children")
	}
	// Root spans are sequential phases of one handler, so their durations
	// sum to within the measured request latency.
	if sum := obs.RootDurationMS(traced.Trace); sum > wallMS {
		t.Errorf("root spans sum to %.3fms, more than the request's %.3fms", sum, wallMS)
	}
	if traced.ElapsedMS > wallMS {
		t.Errorf("elapsed_ms %.3f exceeds the measured %.3fms", traced.ElapsedMS, wallMS)
	}
}

// Traced session requests: create returns the solve subtree, PATCH adds
// the delta_patch span with its mutation count, both echo the trace id.
func TestSessionTraced(t *testing.T) {
	s := New(Config{})
	raw := instanceJSON(t, testInstance(t, 42))

	rec := post(s, "/v1/session", requestBody(t, raw, map[string]any{"trace": true}))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var created sessionResponse
	decodeResponse(t, rec.Body.Bytes(), &created)
	if created.TraceID == "" || created.TraceID != rec.Header().Get("X-Trace-Id") {
		t.Fatalf("create trace id %q vs header %q", created.TraceID, rec.Header().Get("X-Trace-Id"))
	}
	for _, phase := range []string{"decode", "acquire_slot", "resolve_problem", "solve"} {
		if rootNamed(created.Trace, phase) == nil {
			t.Fatalf("create missing %s root span", phase)
		}
	}

	// An empty mutation list is a valid PATCH (pure warm re-solve); its
	// trace still carries the delta_patch span.
	rec = do(s, http.MethodPatch, "/v1/session/"+created.SessionID, []byte(`{"mutations":[],"trace":true}`))
	if rec.Code != http.StatusOK {
		t.Fatalf("patch status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var patched sessionResponse
	decodeResponse(t, rec.Body.Bytes(), &patched)
	if patched.TraceID == "" {
		t.Fatal("patch response missing trace id")
	}
	dp := rootNamed(patched.Trace, "delta_patch")
	if dp == nil {
		t.Fatalf("patch missing delta_patch span: %+v", patched.Trace)
	}
	if dp.Attrs["mutations"] != 0 {
		t.Errorf("delta_patch mutations attr = %d, want 0", dp.Attrs["mutations"])
	}
	if rootNamed(patched.Trace, "solve") == nil {
		t.Fatal("patch missing solve span")
	}
}

// A request whose client went away reads 499 in both places that record
// a status: the access-log line and requests_by_status on /metrics.
func TestClientGoneAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := requestBody(t, instanceJSON(t, testInstance(t, 44)), nil)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)).WithContext(ctx)
	s.ServeHTTP(httptest.NewRecorder(), req)

	var line struct {
		Msg    string `json:"msg"`
		Path   string `json:"path"`
		Status int    `json:"status"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, logBuf.Bytes())
	}
	if line.Msg != "request" || line.Path != "/v1/schedule" || line.Status != statusClientGone {
		t.Fatalf("access line %s, want the /v1/schedule request with status 499", logBuf.Bytes())
	}
	if got := s.Metrics().ByStatus["499"]; got != 1 {
		t.Fatalf("requests_by_status 499 = %d, want 1", got)
	}
}
