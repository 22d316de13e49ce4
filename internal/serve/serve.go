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
// One request path: POST /v1/schedule, POST /v1/session and PATCH
// /v1/session/{id} all run the solve, so all three go through solveRoute
// and the phase helpers of solveCall — decode, acquire_slot,
// resolve_problem, [delta_patch], solve — and share one status mapping,
// one Retry-After rule and one latency record.
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
	"io"
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

	// RetryAfter is the hint sent with the 429, 503 and 504 responses of
	// the solve endpoints. Default 1s.
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
	s.mux.HandleFunc("/v1/schedule", s.solveRoute(http.MethodPost, http.StatusOK, s.schedule))
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

	solveParams

	KernelStats bool `json:"kernel_stats,omitempty"` // include kernel counters in the response

	// Trace asks for the per-phase breakdown of this request: the response
	// carries the obs span forest (decode, slot acquisition, problem
	// resolution, and the core solve subtree) plus the request's trace id.
	// Tracing never changes the schedule — spans bracket phases, not
	// inner loops.
	Trace bool `json:"trace,omitempty"`
}

// solveParams are the scheduling options of /v1/schedule and of session
// creation (a session fixes them for its lifetime).
type solveParams struct {
	Colors  int   `json:"colors,omitempty"`  // core.Options.Colors; default 1
	Samples int   `json:"samples,omitempty"` // core.Options.Samples; default 8·Colors
	Seed    int64 `json:"seed,omitempty"`    // RNG seed; 0 selects the default seed 1

	// PreferStay mirrors core.Options.PreferStay; omitted means true
	// (the paper's default).
	PreferStay *bool `json:"prefer_stay,omitempty"`
}

// check refuses a request without an instance, or whose effective
// Monte-Carlo sample count exceeds limit. The effective count mirrors
// core.Options.normalize: 1 at C ≤ 1, the samples field otherwise,
// defaulting to 8·C.
func (sp solveParams) check(instance json.RawMessage, limit int) *httpError {
	if len(instance) == 0 {
		return fail(http.StatusBadRequest, `missing "instance"`)
	}
	eff := 1
	if c := min(sp.Colors, 255); c > 1 {
		eff = sp.Samples
		if eff <= 0 {
			eff = 8 * c
		}
	}
	if eff > limit {
		return fail(http.StatusBadRequest, "effective samples %d exceeds the limit %d", eff, limit)
	}
	return nil
}

// options returns the core.Options of one run, with a fresh RNG so that
// every run under these parameters starts from the same seed.
func (sp solveParams) options() core.Options {
	seed := sp.Seed
	if seed == 0 {
		seed = 1
	}
	return core.Options{
		Colors:     sp.Colors,
		Samples:    sp.Samples,
		PreferStay: sp.PreferStay == nil || *sp.PreferStay,
		Rng:        rand.New(rand.NewSource(seed)),
	}
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

	tracePart
}

// tracePart is set in a success body when the request asked for tracing:
// the id matching the X-Trace-Id header and access log, and the recorded
// phase forest (root span durations sum to at most elapsed_ms).
type tracePart struct {
	TraceID string      `json:"trace_id,omitempty"`
	Trace   []*obs.Node `json:"trace,omitempty"`
}

// errorResponse is the body of every non-2xx response the service writes:
// errors are always well-formed JSON.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// statusClientGone is the nginx-convention code recorded in metrics and
// the access log when the client disconnected before the response (never
// actually written to the wire — there is no client left to read it).
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
		writeJSON(w, http.StatusServiceUnavailable, h)
		return
	}
	h.Status = "ok"
	writeJSON(w, http.StatusOK, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		w.Header().Set("Content-Type", prometheusContentType)
		w.WriteHeader(http.StatusOK)
		writePrometheus(w, s.Metrics())
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleNotFound(w http.ResponseWriter, r *http.Request) {
	writeError(w, http.StatusNotFound, fmt.Sprintf("no such route %s", r.URL.Path))
}

// httpError is a request refused by a phase of the solve path: the
// status to answer with and the message of its JSON error body.
type httpError struct {
	status int
	msg    string
}

func fail(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// solveCall is one request on the solve path. solveRoute creates it, and
// the endpoint runs it through the phase helpers below in order.
type solveCall struct {
	s  *Server
	w  http.ResponseWriter
	r  *http.Request
	t0 time.Time
	tr *obs.Trace // nil unless the body asked for tracing

	ctx     context.Context // the request under its timeout, set by acquire
	cancel  context.CancelFunc
	holding bool // a worker slot is held
}

// solveRoute adapts a solve endpoint to the pipeline: it refuses other
// methods and a draining server, runs the endpoint, writes its response
// under the ok status or its JSON error, frees the worker slot and, for
// a request it ran, records the latency: a refused one never reached
// scheduling. Every 429, 503 and 504 carries Retry-After.
func (s *Server) solveRoute(method string, ok int, run func(*solveCall) (any, *httpError)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		c := &solveCall{s: s, w: w, r: r, t0: time.Now()}
		var resp any
		var e *httpError
		ran := false
		switch {
		case r.Method != method:
			e = fail(http.StatusMethodNotAllowed, "use %s", method)
		case s.draining.Load():
			e = fail(http.StatusServiceUnavailable, "draining")
		default:
			resp, e = run(c)
			ran = true
		}
		switch {
		case e == nil:
			writeJSON(w, ok, resp)
		case e.status == statusClientGone:
			// Nobody is left to read a response: write none, and let
			// serveLogged record the 499.
			if sw, isSW := w.(*statusWriter); isSW {
				sw.status = statusClientGone
			}
		default:
			switch e.status {
			case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
			}
			writeError(w, e.status, e.msg)
		}
		if c.cancel != nil {
			c.cancel()
		}
		if c.holding {
			s.met.inFlight.Add(-1)
			<-s.sem
		}
		if ran {
			s.met.recordLatency(time.Since(c.t0))
		}
	}
}

// decode caps the body, strictly decodes it into v and, when the decoded
// trace flag is set, starts the request's trace. The decode finishes
// before the trace can exist (the flag is inside the body), so its span
// is retro-recorded; a nil trace keeps every later span call a no-op.
func (c *solveCall) decode(v any, trace *bool) *httpError {
	c.r.Body = http.MaxBytesReader(c.w, c.r.Body, c.s.cfg.MaxBodyBytes)
	t := time.Now()
	if e := decodeStrictBody(c.r.Body, v); e != nil {
		return e
	}
	if *trace {
		c.tr = obs.New()
		c.tr.Span("decode", t, time.Since(t))
	}
	return nil
}

// acquire puts the request under its timeout, then takes a worker slot
// at once or a bounded queue position, shedding with 429 beyond the
// queue depth. solveRoute frees the slot once the response is written.
func (c *solveCall) acquire() *httpError {
	s := c.s
	c.ctx, c.cancel = context.WithTimeout(c.r.Context(), s.cfg.RequestTimeout)
	sp := c.tr.Start("acquire_slot")
	defer sp.End()
	select {
	case s.sem <- struct{}{}:
	default:
		if s.met.queued.Add(1) > int64(s.cfg.QueueDepth) {
			s.met.queued.Add(-1)
			return fail(http.StatusTooManyRequests,
				"queue full (%d scheduling, %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth)
		}
		select {
		case s.sem <- struct{}{}:
			s.met.queued.Add(-1)
		case <-c.ctx.Done():
			s.met.queued.Add(-1)
			if c.r.Context().Err() != nil {
				return fail(statusClientGone, "client went away while queued")
			}
			return fail(http.StatusServiceUnavailable, "timed out waiting for a worker slot")
		}
	}
	s.met.inFlight.Add(1)
	c.holding = true
	return nil
}

// resolve turns the raw instance bytes into a compiled Problem under the
// resolve_problem span; hit reports whether NewProblem was skipped.
func (c *solveCall) resolve(raw json.RawMessage) (p *core.Problem, hash string, hit bool, e *httpError) {
	sp := c.tr.Start("resolve_problem")
	p, hash, hit, err := c.s.resolveProblem(raw)
	sp.Bool("cache_hit", hit).End()
	if err != nil {
		return nil, "", false, fail(http.StatusBadRequest, "invalid instance: %v", err)
	}
	return p, hash, hit, nil
}

// solve runs the scheduler on p under the request timeout and records
// the run's kernel and shard counters. A request that is already dead
// (client gone, timeout spent waiting for a slot) gets no run at all. A
// lost client maps to 499, an expired timeout to 504.
func (c *solveCall) solve(p *core.Problem, opt core.Options) (core.Result, *httpError) {
	s := c.s
	opt.Trace = c.tr
	opt.Workers = s.cfg.CoreWorkers
	s.met.scheduled.Add(1)
	err := c.ctx.Err()
	var res core.Result
	if err == nil {
		res, err = core.TabularGreedyCtx(c.ctx, p, opt)
	}
	if err != nil {
		if c.r.Context().Err() != nil {
			return res, fail(statusClientGone, "client went away mid-solve")
		}
		return res, fail(http.StatusGatewayTimeout,
			"scheduling exceeded the %s request timeout", s.cfg.RequestTimeout)
	}
	s.met.recordKernel(res.Kernel)
	s.met.recordShards(res.Shards)
	return res, nil
}

// traced returns the trace part of a success body: empty unless the
// request asked for tracing.
func (c *solveCall) traced() tracePart {
	if c.tr == nil {
		return tracePart{}
	}
	return tracePart{TraceID: traceIDFrom(c.r.Context()), Trace: c.tr.Tree()}
}

func (c *solveCall) elapsedMS() float64 {
	return float64(time.Since(c.t0)) / float64(time.Millisecond)
}

// schedule is the POST /v1/schedule endpoint: one solve of the request's
// instance through the compiled-problem cache.
func (s *Server) schedule(c *solveCall) (any, *httpError) {
	var req scheduleRequest
	if e := c.decode(&req, &req.Trace); e != nil {
		return nil, e
	}
	if e := req.check(req.Instance, s.cfg.MaxSamples); e != nil {
		return nil, e
	}
	if e := c.acquire(); e != nil {
		return nil, e
	}
	p, hash, hit, e := c.resolve(req.Instance)
	if e != nil {
		return nil, e
	}
	opt := req.options()
	opt.KernelStats = req.KernelStats
	res, e := c.solve(p, opt)
	if e != nil {
		return nil, e
	}
	resp := scheduleResponse{
		Shards:       res.Shards,
		InstanceHash: hash,
		Cache:        "miss",
		Slots:        res.Schedule.Slots(),
		Schedule:     res.Schedule.Policy,
		RUtility:     res.RUtility,
		ElapsedMS:    c.elapsedMS(),
		tracePart:    c.traced(),
	}
	if hit {
		resp.Cache = "hit"
	}
	if req.KernelStats {
		ks := res.Kernel
		resp.Kernel = &ks
	}
	return resp, nil
}

// resolveProblem turns the raw instance bytes into a compiled Problem via
// the two cache layers: the byte memo (identical bodies skip JSON decode)
// and the content-addressed compiled-problem cache (identical canonical
// instances skip NewProblem). hit reports whether NewProblem was skipped.
func (s *Server) resolveProblem(raw json.RawMessage) (p *core.Problem, hash string, hit bool, err error) {
	sum := sha256.Sum256(raw)
	byteHash := string(sum[:])
	if canon, ok := s.cache.memoGet(byteHash); ok {
		if p, hit, err := s.cache.get(canon, nil); hit {
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

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg, Status: status})
}

// decodeStrictBody decodes a JSON request body with unknown fields and
// trailing data rejected, mapping oversized bodies to 413.
func decodeStrictBody(body io.Reader, v any) *httpError {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fail(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooLarge.Limit)
		}
		return fail(http.StatusBadRequest, "malformed request: %v", err)
	}
	if dec.More() {
		return fail(http.StatusBadRequest, "malformed request: trailing data after JSON body")
	}
	return nil
}

func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}
