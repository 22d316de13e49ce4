package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/workload"
)

// post runs one request through the handler and returns the recorder.
func post(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	s.ServeHTTP(rec, req)
	return rec
}

func get(s *Server, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func TestScheduleMatchesDirectCall(t *testing.T) {
	s := New(Config{})
	in := testInstance(t, 1)
	body := requestBody(t, instanceJSON(t, in), map[string]any{"colors": 2, "samples": 4, "seed": 9})

	rec := post(s, "/v1/schedule", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp scheduleResponse
	decodeResponse(t, rec.Body.Bytes(), &resp)

	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	want := core.TabularGreedy(p, core.Options{
		Colors: 2, Samples: 4, PreferStay: true, Workers: 1,
		Rng: rand.New(rand.NewSource(9)),
	})
	if err := schedulesEqual(resp.Schedule, want.Schedule.Policy); err != nil {
		t.Fatalf("service schedule differs from direct call: %v", err)
	}
	if resp.RUtility != want.RUtility {
		t.Fatalf("RUtility %v != %v", resp.RUtility, want.RUtility)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first request reported cache %q", resp.Cache)
	}
	wantHash, err := instio.FromInstance(in, "").Hash()
	if err != nil {
		t.Fatal(err)
	}
	if resp.InstanceHash != wantHash {
		t.Fatalf("instance hash %q != %q", resp.InstanceHash, wantHash)
	}
}

// TestWarmCacheSkipsNewProblem: the second identical request is a cache
// hit (NewProblem skipped — asserted via the hit counter) and a
// differently formatted spelling of the same instance still hits through
// the canonical hash.
func TestWarmCacheSkipsNewProblem(t *testing.T) {
	s := New(Config{})
	in := testInstance(t, 2)
	raw := instanceJSON(t, in)
	body := requestBody(t, raw, nil)

	var resp scheduleResponse
	rec := post(s, "/v1/schedule", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("cold: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	decodeResponse(t, rec.Body.Bytes(), &resp)
	cold := resp

	rec = post(s, "/v1/schedule", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.Cache != "hit" {
		t.Fatalf("identical request reported cache %q", resp.Cache)
	}
	if err := schedulesEqual(resp.Schedule, cold.Schedule); err != nil {
		t.Fatalf("warm schedule differs from cold: %v", err)
	}

	// Same instance, different JSON spelling: compact it.
	var compact bytes.Buffer
	if err := json.Compact(&compact, raw); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(compact.Bytes(), raw) {
		t.Fatal("compact form should differ from the indented wire form")
	}
	rec = post(s, "/v1/schedule", requestBody(t, compact.Bytes(), nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("respelled: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.Cache != "hit" {
		t.Fatalf("respelled instance reported cache %q — canonical hashing broken", resp.Cache)
	}
	if resp.InstanceHash != cold.InstanceHash {
		t.Fatalf("respelled instance hash %q != %q", resp.InstanceHash, cold.InstanceHash)
	}

	st := s.CacheStats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("cache stats = %+v, want 1 miss / 2 hits", st)
	}
	if st.MemoHits != 1 {
		t.Fatalf("byte-memo hits = %d, want 1 (only the byte-identical repeat)", st.MemoHits)
	}
}

func TestScheduleErrors(t *testing.T) {
	s := New(Config{MaxSamples: 16})
	valid := instanceJSON(t, testInstance(t, 3))
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
	}{
		{"not json", http.MethodPost, "/v1/schedule", "{", http.StatusBadRequest},
		{"empty body", http.MethodPost, "/v1/schedule", "", http.StatusBadRequest},
		{"missing instance", http.MethodPost, "/v1/schedule", `{"colors":1}`, http.StatusBadRequest},
		{"unknown envelope field", http.MethodPost, "/v1/schedule",
			`{"instance":{},"bogus":1}`, http.StatusBadRequest},
		{"removed lazy field", http.MethodPost, "/v1/schedule",
			string(requestBody(t, valid, map[string]any{"lazy": true})), http.StatusBadRequest},
		{"removed shard field", http.MethodPost, "/v1/schedule",
			string(requestBody(t, valid, map[string]any{"shard": true})), http.StatusBadRequest},
		{"trailing garbage", http.MethodPost, "/v1/schedule",
			string(requestBody(t, valid, nil)) + "garbage", http.StatusBadRequest},
		{"invalid instance", http.MethodPost, "/v1/schedule",
			`{"instance":{"version":99}}`, http.StatusBadRequest},
		{"instance wrong type", http.MethodPost, "/v1/schedule",
			`{"instance":[1,2,3]}`, http.StatusBadRequest},
		{"samples over cap", http.MethodPost, "/v1/schedule",
			string(requestBody(t, valid, map[string]any{"colors": 2, "samples": 17})), http.StatusBadRequest},
		{"default samples over cap", http.MethodPost, "/v1/schedule",
			string(requestBody(t, valid, map[string]any{"colors": 200})), http.StatusBadRequest},
		{"horizon over cap", http.MethodPost, "/v1/schedule",
			`{"instance":{"version":1,"params":{"alpha":1,"beta":0,"radius_m":5,"charge_angle_deg":90,"receive_angle_deg":180,"slot_seconds":1},"chargers":[{"x":0,"y":0}],"tasks":[{"x":1,"y":1,"phi_deg":0,"release_slot":0,"end_slot":2000000000,"energy_j":10,"weight":1}]}}`,
			http.StatusBadRequest},
		{"get not allowed", http.MethodGet, "/v1/schedule", "", http.StatusMethodNotAllowed},
		{"unknown route", http.MethodPost, "/v1/other", "", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			s.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.Bytes())
			}
			var er errorResponse
			decodeResponse(t, rec.Body.Bytes(), &er)
			if er.Error == "" || er.Status != tc.status {
				t.Fatalf("malformed error body: %s", rec.Body.Bytes())
			}
		})
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := New(Config{MaxBodyBytes: 512})
	body := requestBody(t, instanceJSON(t, testInstance(t, 4)), nil)
	if len(body) <= 512 {
		t.Fatalf("test instance too small (%d bytes) to trip the limit", len(body))
	}
	rec := post(s, "/v1/schedule", body)
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.Bytes())
	}
	var er errorResponse
	decodeResponse(t, rec.Body.Bytes(), &er)
}

func TestHealthzAndDrain(t *testing.T) {
	s := New(Config{})
	rec := get(s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	s.BeginDrain()
	rec = get(s, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status %d, want 503", rec.Code)
	}
	rec = post(s, "/v1/schedule", requestBody(t, instanceJSON(t, testInstance(t, 5)), nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining schedule status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("draining 503 missing Retry-After")
	}
	var er errorResponse
	decodeResponse(t, rec.Body.Bytes(), &er)
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	body := requestBody(t, instanceJSON(t, testInstance(t, 6)), map[string]any{"kernel_stats": true})
	for i := 0; i < 3; i++ {
		if rec := post(s, "/v1/schedule", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	post(s, "/v1/schedule", []byte("{"))

	rec := get(s, "/metrics")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	var m MetricsSnapshot
	decodeResponse(t, rec.Body.Bytes(), &m)
	if m.Scheduled != 3 {
		t.Errorf("scheduled_total = %d, want 3", m.Scheduled)
	}
	if m.ByStatus["200"] != 3 || m.ByStatus["400"] != 1 {
		t.Errorf("requests_by_status = %v, want 3×200 and 1×400", m.ByStatus)
	}
	if m.Cache.Hits != 2 || m.Cache.Misses != 1 {
		t.Errorf("cache = %+v, want 2 hits / 1 miss", m.Cache)
	}
	if m.Latency.Count != 4 {
		t.Errorf("latency count = %d, want 4 (schedule requests only)", m.Latency.Count)
	}
	if m.Kernel.Calls == 0 {
		t.Errorf("kernel stats not aggregated: %+v", m.Kernel)
	}
	if m.InFlight != 0 || m.Queued != 0 {
		t.Errorf("idle gauges nonzero: in_flight=%d queued=%d", m.InFlight, m.Queued)
	}
	if got := len(m.Latency.Counts); got != len(m.Latency.BucketsMS)+1 {
		t.Errorf("histogram has %d counts for %d buckets", got, len(m.Latency.BucketsMS))
	}
}

// TestRequestTimeout: a request whose schedule cannot finish within the
// configured timeout returns 504 with a JSON error, and the pooled states
// of the cached problem are all returned.
func TestRequestTimeout(t *testing.T) {
	s := New(Config{RequestTimeout: time.Millisecond})
	cfg := workload.Default() // paper-scale: C=8 × 64 samples ≫ 1ms
	in := cfg.Generate(rand.New(rand.NewSource(7)))
	raw := instanceJSON(t, in)
	rec := post(s, "/v1/schedule", requestBody(t, raw, map[string]any{"colors": 8}))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.Bytes())
	}
	var er errorResponse
	decodeResponse(t, rec.Body.Bytes(), &er)
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("504 missing Retry-After")
	}

	// The compiled problem stays cached and leak-free: rerun with a sane
	// budget must succeed as a cache hit with a balanced pool.
	s.cfg.RequestTimeout = time.Minute
	rec = post(s, "/v1/schedule", requestBody(t, raw, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-timeout status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp scheduleResponse
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.Cache != "hit" {
		t.Fatalf("post-timeout request reported cache %q", resp.Cache)
	}
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		p := el.Value.(*cacheEntry).p
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("cached problem leaked %d pooled states after timeout", n)
		}
	}
}

// TestBackpressure: with one worker slot and a queue of one, a third
// concurrent request is shed with 429 + Retry-After.
func TestBackpressure(t *testing.T) {
	s := New(Config{MaxConcurrent: 1, QueueDepth: 1, RequestTimeout: 30 * time.Second})
	cfg := workload.Default()
	in := cfg.Generate(rand.New(rand.NewSource(8)))
	slow := requestBody(t, instanceJSON(t, in), map[string]any{"colors": 8})

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	launch := func() {
		go func() {
			rec := post(s, "/v1/schedule", slow)
			results <- result{rec.Code, rec.Body.Bytes()}
		}()
	}

	launch() // occupies the worker slot
	waitGauge(t, func() bool { return s.Metrics().InFlight == 1 })
	launch() // occupies the queue slot
	waitGauge(t, func() bool { return s.Metrics().Queued == 1 })

	rec := post(s, "/v1/schedule", slow) // queue full → shed
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	var er errorResponse
	decodeResponse(t, rec.Body.Bytes(), &er)

	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("in-flight/queued request failed with %d: %s", r.code, r.body)
		}
	}
	if m := s.Metrics(); m.InFlight != 0 || m.Queued != 0 {
		t.Fatalf("gauges not drained: %+v", m)
	}
}

func waitGauge(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCacheEvictionLRU: with a cache of two, three distinct instances
// evict the least recently used; re-requesting the evicted one recompiles.
func TestCacheEvictionLRU(t *testing.T) {
	s := New(Config{CacheSize: 2})
	bodies := make([][]byte, 3)
	for i := range bodies {
		bodies[i] = requestBody(t, instanceJSON(t, testInstance(t, int64(20+i))), nil)
	}
	for _, b := range bodies { // a, b, c → evicts a
		if rec := post(s, "/v1/schedule", b); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
	st := s.CacheStats()
	if st.Misses != 3 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats after fill = %+v, want 3 misses / 1 eviction / 2 entries", st)
	}
	var resp scheduleResponse
	rec := post(s, "/v1/schedule", bodies[0]) // evicted → miss again
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.Cache != "miss" {
		t.Fatalf("evicted instance reported cache %q", resp.Cache)
	}
	rec = post(s, "/v1/schedule", bodies[2]) // still resident → hit
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.Cache != "hit" {
		t.Fatalf("resident instance reported cache %q", resp.Cache)
	}
}

// TestPreferStayOption: option plumbing reaches core — prefer_stay=false
// must match the direct call.
func TestPreferStayOption(t *testing.T) {
	s := New(Config{})
	in := testInstance(t, 9)
	raw := instanceJSON(t, in)
	p, err := core.NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}

	var noStay scheduleResponse
	decodeResponse(t, post(s, "/v1/schedule", requestBody(t, raw, map[string]any{"seed": 3, "prefer_stay": false})).Body.Bytes(), &noStay)

	want := core.TabularGreedy(p, core.Options{
		Colors: 1, PreferStay: false, Workers: 1, Rng: rand.New(rand.NewSource(3)),
	})
	if err := schedulesEqual(noStay.Schedule, want.Schedule.Policy); err != nil {
		t.Fatalf("prefer_stay=false diverged from direct call: %v", err)
	}
}
