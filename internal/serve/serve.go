// Package serve is the resident scheduling service: a long-running HTTP
// JSON API that accepts HASTE instances in the instio wire format and
// schedules them with the offline TabularGreedy, amortizing instance
// compilation across requests through a content-addressed compiled-problem
// cache (cache.go). The one-shot CLIs pay parse + NewProblem + schedule on
// every invocation; the service pays NewProblem once per distinct instance
// and the schedule runs of concurrent requests against the same instance
// share one compilation.
//
// Endpoints:
//
//	POST /v1/schedule — schedule an instance (scheduleRequest → scheduleResponse)
//	GET  /healthz     — liveness/readiness (503 once draining)
//	GET  /metrics     — JSON metrics snapshot (metrics.go)
//
// plus the incremental session API of session.go (POST /v1/session and
// friends), which pins a mutable compiled problem server-side and turns
// task churn into delta patches plus warm-started solves.
//
// Load discipline: a bounded worker pool (Config.MaxConcurrent slots) with
// a bounded wait queue (Config.QueueDepth) schedules at most MaxConcurrent
// requests at once; a request arriving with the queue full is shed
// immediately with 429 and a Retry-After hint instead of being buffered
// without bound. Every request runs under a wall-clock timeout
// (Config.RequestTimeout) that covers queue wait and scheduling; the
// timeout and client disconnects propagate into the greedy loop through
// core.TabularGreedyCtx, so an abandoned request frees its worker slot
// within one greedy stage and leaks no pooled state.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/obs"
)

// Config tunes the service. The zero value selects the documented
// defaults.
type Config struct {
	// CacheSize bounds the resident compiled problems (LRU evicted
	// beyond it). Default 64.
	CacheSize int

	// MaxConcurrent is the number of worker slots: requests scheduling
	// at the same time. Default runtime.GOMAXPROCS(0).
	MaxConcurrent int

	// QueueDepth bounds how many admitted requests may wait for a slot;
	// beyond it the service sheds load with 429. Default 64.
	QueueDepth int

	// RequestTimeout is the per-request wall clock covering queue wait
	// and scheduling. Default 30s.
	RequestTimeout time.Duration

	// RetryAfter is the hint sent with 429/503 responses. Default 1s.
	RetryAfter time.Duration

	// MaxBodyBytes caps the request body. Default 8 MiB.
	MaxBodyBytes int64

	// MaxSamples caps the effective Monte-Carlo samples of a request —
	// the explicit samples field, or the 8·Colors default when it is
	// omitted (memory and work on the scheduling path are proportional
	// to it). Default 1024.
	MaxSamples int

	// MaxSlots caps the instance horizon K (the scheduler's tables are
	// proportional to chargers × K × samples, so an instance with a
	// task ending at slot 2^31 must be rejected, not scheduled).
	// Default 8192.
	MaxSlots int

	// MaxSessions bounds the concurrently open incremental sessions
	// (each pins a compiled problem and its last component runs in
	// memory); session creation beyond it is refused with 429, also
	// under concurrent creates. Default 64.
	MaxSessions int

	// CoreWorkers is core.Options.Workers for every scheduling run: the
	// component-pool bound of sharded runs (sessions, and schedules that
	// shard). Monolithic runs ignore it. The default 1 schedules one
	// component at a time — the service gets its parallelism from
	// concurrent requests, and Workers never changes results
	// (bit-identical by the repo's determinism contract).
	CoreWorkers int

	// Logger receives the structured access log (one line per request,
	// with the request's trace id) and the session lifecycle events.
	// Default: discard.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 1024
	}
	if c.MaxSlots <= 0 {
		c.MaxSlots = 8192
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	if c.CoreWorkers <= 0 {
		c.CoreWorkers = 1
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	return c
}

// Server is the scheduling service. Create with New, mount as an
// http.Handler.
type Server struct {
	cfg      Config
	cache    *problemCache
	met      *metrics
	sem      chan struct{}
	draining atomic.Bool
	mux      *http.ServeMux

	sessMu       sync.Mutex
	sessions     map[string]*session
	sessReserved int // creates past the MaxSessions check, not yet inserted
}

// New builds a Server from the configuration.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		cache:    newProblemCache(cfg.CacheSize, 4*cfg.CacheSize),
		met:      newMetrics(),
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		mux:      http.NewServeMux(),
		sessions: make(map[string]*session),
	}
	s.registerSessionRoutes()
	s.mux.HandleFunc("/v1/schedule", s.handleSchedule)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/", s.handleNotFound)
	return s
}

// ServeHTTP implements http.Handler. Every request passes through the
// logging middleware (logging.go): a fresh trace id in the X-Trace-Id
// response header and one structured access-log line on completion.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.serveLogged(w, r)
}

// BeginDrain flips the service into draining: /healthz turns 503 so load
// balancers stop routing here, and new schedule requests are refused with
// 503 while in-flight ones run to completion. Callers then stop the
// http.Server with Shutdown, which waits for the in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// CacheStats returns the compiled-problem cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// Metrics returns the full metrics snapshot served on /metrics.
func (s *Server) Metrics() MetricsSnapshot {
	return s.met.snapshot(s.cache.stats(), s.draining.Load(), s.SessionCount())
}

// scheduleRequest is the POST /v1/schedule body: the instance in the
// instio wire format plus scheduling options mirroring core.Options.
type scheduleRequest struct {
	// Instance is the instio file document (kept raw so byte-identical
	// warm requests skip decoding it; see problemCache).
	Instance json.RawMessage `json:"instance"`

	Colors  int   `json:"colors,omitempty"`  // core.Options.Colors; default 1
	Samples int   `json:"samples,omitempty"` // core.Options.Samples; default 8·Colors
	Seed    int64 `json:"seed,omitempty"`    // RNG seed; 0 selects the default seed 1

	// PreferStay mirrors core.Options.PreferStay; omitted means true
	// (the paper's default).
	PreferStay *bool `json:"prefer_stay,omitempty"`

	KernelStats bool `json:"kernel_stats,omitempty"` // include kernel counters in the response

	// Trace asks for the per-phase breakdown of this request: the response
	// carries the obs span forest (decode, slot acquisition, problem
	// resolution, and the core solve subtree) plus the request's trace id.
	// Tracing never changes the schedule — spans bracket phases, not
	// inner loops.
	Trace bool `json:"trace,omitempty"`
}

// scheduleResponse is the success body.
type scheduleResponse struct {
	InstanceHash string            `json:"instance_hash"`
	Cache        string            `json:"cache"` // "hit" or "miss"
	Slots        int               `json:"slots"`
	Schedule     [][]int           `json:"schedule"`
	RUtility     float64           `json:"r_utility"`
	ElapsedMS    float64           `json:"elapsed_ms"`
	Kernel       *core.KernelStats `json:"kernel,omitempty"`

	// Shards is the number of independently scheduled components when the
	// run took the shard-and-stitch path (omitted for monolithic runs).
	Shards int `json:"shards,omitempty"`

	// TraceID and Trace are set when the request asked for tracing: the id
	// matching the X-Trace-Id header and access log, and the recorded
	// phase forest (root span durations sum to at most ElapsedMS).
	TraceID string      `json:"trace_id,omitempty"`
	Trace   []*obs.Node `json:"trace,omitempty"`
}

// errorResponse is the body of every non-2xx response the service writes:
// errors are always well-formed JSON.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// statusClientGone is the nginx-convention code recorded in metrics when
// the client disconnected before the response (never actually written to
// the wire — there is no client left to read it).
const statusClientGone = 499

// healthResponse is the GET /healthz body: liveness plus enough build
// identity to tell which binary is answering.
type healthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version,omitempty"`
	Module        string  `json:"module,omitempty"`
	ModuleVersion string  `json:"module_version,omitempty"`
	VCSRevision   string  `json:"vcs_revision,omitempty"`
}

// buildIdentity reads the binary's build info once: module path and
// version, the toolchain, and the VCS revision when the binary was built
// from a checkout.
var buildIdentity = sync.OnceValue(func() healthResponse {
	var h healthResponse
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return h
	}
	h.GoVersion = bi.GoVersion
	h.Module = bi.Main.Path
	h.ModuleVersion = bi.Main.Version
	for _, kv := range bi.Settings {
		if kv.Key == "vcs.revision" {
			h.VCSRevision = kv.Value
		}
	}
	return h
})

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := buildIdentity()
	h.UptimeSeconds = time.Since(s.met.start).Seconds()
	if s.draining.Load() {
		h.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ok"
	s.writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, s.Metrics())
		s.met.recordStatus(http.StatusOK)
		return
	}
	s.writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	s.writeError(w, http.StatusNotFound, fmt.Sprintf("no such route %s", r.URL.Path))
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status, err := s.schedule(w, r, t0)
	if err != nil {
		if status == statusClientGone {
			// The connection is gone; record for observability only.
			s.met.recordStatus(status)
		} else {
			s.writeError(w, status, err.Error())
		}
	}
	s.met.recordLatency(time.Since(t0))
}

// schedule runs one request end to end. It returns (0, nil) after writing
// a success response itself, or the error status to write.
func (s *Server) schedule(w http.ResponseWriter, r *http.Request, t0 time.Time) (int, error) {
	if r.Method != http.MethodPost {
		return http.StatusMethodNotAllowed, errors.New("use POST")
	}
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return http.StatusServiceUnavailable, errors.New("draining")
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req scheduleRequest
	tDecode := time.Now()
	if status, err := decodeStrictBody(r.Body, &req); err != nil {
		return status, err
	}
	// The decode finishes before the trace can exist (the trace flag is
	// inside the body), so its span is retro-recorded. A nil tr keeps
	// every span call below a no-op.
	var tr *obs.Trace
	if req.Trace {
		tr = obs.New()
		tr.Span("decode", tDecode, time.Since(tDecode))
	}
	if len(req.Instance) == 0 {
		return http.StatusBadRequest, errors.New("missing \"instance\"")
	}
	if eff := effectiveSamples(req.Colors, req.Samples); eff > s.cfg.MaxSamples {
		return http.StatusBadRequest,
			fmt.Errorf("effective samples %d exceeds the limit %d", eff, s.cfg.MaxSamples)
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	asp := tr.Start("acquire_slot")
	release, status, err := s.acquireSlot(ctx, r, w)
	asp.End()
	if err != nil {
		return status, err
	}
	defer release()

	rsp := tr.Start("resolve_problem")
	p, hash, hit, err := s.resolveProblem(req.Instance)
	rsp.Bool("cache_hit", hit).End()
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("invalid instance: %v", err)
	}

	opt := core.Options{
		Trace:       tr,
		Colors:      req.Colors,
		Samples:     req.Samples,
		PreferStay:  req.PreferStay == nil || *req.PreferStay,
		Workers:     s.cfg.CoreWorkers,
		KernelStats: req.KernelStats,
	}
	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	opt.Rng = rand.New(rand.NewSource(seed))

	s.met.scheduled.Add(1)
	res, err := core.TabularGreedyCtx(ctx, p, opt)
	if err != nil {
		if r.Context().Err() != nil {
			return statusClientGone, errors.New("client went away mid-schedule")
		}
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return http.StatusGatewayTimeout,
			fmt.Errorf("scheduling exceeded the %s request timeout", s.cfg.RequestTimeout)
	}
	s.met.recordKernel(res.Kernel)
	s.met.recordShards(res.Shards)

	resp := scheduleResponse{
		Shards:       res.Shards,
		InstanceHash: hash,
		Cache:        "miss",
		Slots:        res.Schedule.Slots(),
		Schedule:     res.Schedule.Policy,
		RUtility:     res.RUtility,
		ElapsedMS:    float64(time.Since(t0)) / float64(time.Millisecond),
	}
	if hit {
		resp.Cache = "hit"
	}
	if req.KernelStats {
		ks := res.Kernel
		resp.Kernel = &ks
	}
	if tr != nil {
		resp.TraceID = traceIDFrom(r.Context())
		resp.Trace = tr.Tree()
	}
	s.writeJSON(w, http.StatusOK, resp)
	return 0, nil
}

// acquireSlot is the admission control shared by the one-shot and session
// scheduling paths: take a worker slot immediately or a bounded queue
// position, shedding with 429 beyond the queue depth. On success the
// returned release func must be deferred; on failure it returns the error
// status to write (or statusClientGone when there is nobody left to read
// it). ctx must already carry the request timeout.
func (s *Server) acquireSlot(ctx context.Context, r *http.Request, w http.ResponseWriter) (release func(), status int, err error) {
	select {
	case s.sem <- struct{}{}:
	default:
		if s.met.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.met.queued.Add(-1)
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("queue full (%d scheduling, %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth)
		}
		select {
		case s.sem <- struct{}{}:
			s.met.queued.Add(-1)
		case <-ctx.Done():
			s.met.queued.Add(-1)
			if r.Context().Err() != nil {
				return nil, statusClientGone, errors.New("client went away while queued")
			}
			w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			return nil, http.StatusServiceUnavailable, errors.New("timed out waiting for a worker slot")
		}
	}
	s.met.inFlight.Add(1)
	return func() {
		s.met.inFlight.Add(-1)
		<-s.sem
	}, 0, nil
}

// resolveProblem turns the raw instance bytes into a compiled Problem via
// the two cache layers: the byte memo (identical bodies skip JSON decode)
// and the content-addressed compiled-problem cache (identical canonical
// instances skip NewProblem). hit reports whether NewProblem was skipped.
func (s *Server) resolveProblem(raw json.RawMessage) (p *core.Problem, hash string, hit bool, err error) {
	sum := sha256.Sum256(raw)
	byteHash := string(sum[:])
	if canon, ok := s.cache.memoGet(byteHash); ok {
		if p, found, err := s.cache.lookup(canon); found {
			return p, canon, true, err
		}
		// Compiled problem was evicted since the memo entry was written;
		// fall through to the full decode + compile path.
	}

	var f instio.File
	if err := strictUnmarshal(raw, &f); err != nil {
		return nil, "", false, err
	}
	canon, err := f.Hash()
	if err != nil {
		return nil, "", false, err
	}
	s.cache.memoAdd(byteHash, canon)
	p, hit, err = s.cache.get(canon, func() (*core.Problem, error) {
		in, err := f.ToInstance()
		if err != nil {
			return nil, err
		}
		if k := in.Horizon(); k > s.cfg.MaxSlots {
			return nil, fmt.Errorf("horizon %d slots exceeds the limit %d", k, s.cfg.MaxSlots)
		}
		return core.NewProblem(in)
	})
	if err != nil {
		return nil, "", false, err
	}
	return p, canon, hit, nil
}

// effectiveSamples mirrors core.Options.normalize: the Monte-Carlo sample
// count a request will actually run with — 1 at C ≤ 1, the explicit
// samples field otherwise, defaulting to 8·C.
func effectiveSamples(colors, samples int) int {
	if colors < 1 {
		colors = 1
	}
	if colors > 255 {
		colors = 255
	}
	if colors == 1 {
		return 1
	}
	if samples > 0 {
		return samples
	}
	return 8 * colors
}

// strictUnmarshal decodes with the same strictness as instio.Load:
// unknown fields and trailing data are errors.
func strictUnmarshal(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after instance document")
	}
	return nil
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	s.met.recordStatus(status)
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, errorResponse{Error: msg, Status: status})
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
