package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	mrand "math/rand"
	"net/http"
	"sync"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/model"
	"haste/internal/obs"
)

// This file is the session API: the streaming counterpart of the one-shot
// POST /v1/schedule. A session pins a mutable compiled problem server-side
// so task churn — arrivals, cancellations, completions — costs a delta
// patch plus a warm-started solve instead of re-uploading, re-compiling
// and re-solving the whole instance:
//
//	POST   /v1/session                — create from an instance; initial solve
//	GET    /v1/session/{id}           — latest schedule revision (no solve)
//	PATCH  /v1/session/{id}           — apply add/remove/complete mutations, re-solve warm
//	GET    /v1/session/{id}/subscribe — SSE stream of schedule revisions
//	DELETE /v1/session/{id}           — close the session
//
// The session's problem starts as a CloneCompiled of the cache-resident
// compiled problem (concurrent /v1/schedule requests keep solving the
// shared original), and every mutation goes through the delta operations
// of core/incremental.go with the dirty charger set fed into the next
// solve's warm start (core/warm.go). Solves run ShardOn — warm reuse is
// component-granular — which by the stitching contract yields exactly the
// monolithic utility; internal/difftest's mutation-walk sweep pins warm
// session solves bit-identical to cold from-scratch ones.
//
// Tasks are addressed by refs: stable int64 handles that survive the
// dense-ID swap-remove renumbering inside the compiled problem. The
// instance's initial tasks get refs 1..m in instance order; each "add"
// mutation's assigned ref is returned in the PATCH response.
//
// Concurrency: a session serializes its mutations and solves behind one
// mutex (concurrent PATCHes queue; each still holds a worker slot while
// it waits, and the slot-holder ahead of it is the one making progress).
// Subscribers never take the mutex for longer than a snapshot copy. A
// PATCH whose solve times out or loses its client keeps the mutations —
// they are applied and marked dirty — but does not advance the revision;
// any later PATCH (an empty mutation list is allowed for exactly this)
// re-solves from the accumulated state, and the abandoned solve releases
// every pooled EnergyState on its way out (core.TabularGreedyCtx's
// contract, asserted by the session lifecycle tests).

// sessionCreateRequest is the POST /v1/session body: the instance in the
// instio wire format plus the scheduling options fixed for the session's
// lifetime. Options are part of the warm-start fingerprint, so they are
// set once at creation rather than per PATCH.
type sessionCreateRequest struct {
	Instance json.RawMessage `json:"instance"`

	Colors     int   `json:"colors,omitempty"`
	Samples    int   `json:"samples,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
	PreferStay *bool `json:"prefer_stay,omitempty"`

	// Trace asks for the phase breakdown of this request (same contract
	// as scheduleRequest.Trace).
	Trace bool `json:"trace,omitempty"`
}

// sessionMutation is one entry of a PATCH mutation list. Op "add" carries
// a task in the instio wire schema; "remove" (the task left the network)
// and "complete" (it finished charging) both carry the ref of the task to
// drop — they are distinguished for API clarity and metrics only.
type sessionMutation struct {
	Op   string           `json:"op"`
	Task *instio.FileTask `json:"task,omitempty"`
	Ref  int64            `json:"ref,omitempty"`
}

// sessionPatchRequest is the PATCH /v1/session/{id} body. An empty
// mutation list is allowed and simply re-solves (fully warm), which is
// how a client recovers the revision after a timed-out solve.
type sessionPatchRequest struct {
	Mutations []sessionMutation `json:"mutations"`

	// Trace asks for the phase breakdown of this request, including the
	// delta_patch span covering mutation validation and application.
	Trace bool `json:"trace,omitempty"`
}

// sessionView is one schedule revision as exposed on every session
// endpoint and SSE event.
type sessionView struct {
	Rev        int64   `json:"rev"`
	Tasks      int     `json:"tasks"`
	Slots      int     `json:"slots"`
	Schedule   [][]int `json:"schedule"`
	RUtility   float64 `json:"r_utility"`
	Shards     int     `json:"shards"`
	WarmReused int     `json:"warm_reused"`
}

// sessionResponse is the success body of create and PATCH.
type sessionResponse struct {
	SessionID string `json:"session_id"`
	sessionView
	Refs      []int64 `json:"refs,omitempty"` // refs assigned to this PATCH's adds, in op order
	ElapsedMS float64 `json:"elapsed_ms"`

	// TraceID and Trace are set when the request asked for tracing (same
	// contract as scheduleResponse).
	TraceID string      `json:"trace_id,omitempty"`
	Trace   []*obs.Node `json:"trace,omitempty"`
}

// session is one resident scheduling session.
type session struct {
	id string

	// Scheduling options, fixed at creation (the warm fingerprint).
	colors, samples int
	preferStay      bool
	seed            int64

	mu      sync.Mutex
	p       *core.Problem
	warm    *core.WarmStart
	rev     int64
	view    sessionView
	refOf   []int64       // dense task index → ref
	denseOf map[int64]int // ref → dense task index
	nextRef int64
	closed  bool
	watch   map[chan struct{}]struct{}
}

// registerSessionRoutes mounts the session endpoints (called by New).
func (s *Server) registerSessionRoutes() {
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("PATCH /v1/session/{id}", s.handleSessionPatch)
	s.mux.HandleFunc("GET /v1/session/{id}/subscribe", s.handleSessionSubscribe)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
}

func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // crypto/rand never fails on a working OS
	}
	return "s" + hex.EncodeToString(b[:])
}

func (s *Server) lookupSession(id string) *session {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return s.sessions[id]
}

// SessionCount returns the number of open sessions.
func (s *Server) SessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status, err := s.sessionCreate(w, r, t0)
	if err != nil {
		if status == statusClientGone {
			s.met.recordStatus(status)
		} else {
			s.writeError(w, status, err.Error())
		}
	}
	s.met.recordLatency(time.Since(t0))
}

func (s *Server) sessionCreate(w http.ResponseWriter, r *http.Request, t0 time.Time) (int, error) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return http.StatusServiceUnavailable, errors.New("draining")
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req sessionCreateRequest
	tDecode := time.Now()
	if status, err := decodeStrictBody(r.Body, &req); err != nil {
		return status, err
	}
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
	if n := s.SessionCount(); n >= s.cfg.MaxSessions {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return http.StatusTooManyRequests,
			fmt.Errorf("session limit reached (%d open)", n)
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
	shared, _, hit, err := s.resolveProblem(req.Instance)
	rsp.Bool("cache_hit", hit).End()
	if err != nil {
		return http.StatusBadRequest, fmt.Errorf("invalid instance: %v", err)
	}

	seed := req.Seed
	if seed == 0 {
		seed = 1
	}
	sess := &session{
		id:         newSessionID(),
		colors:     req.Colors,
		samples:    req.Samples,
		preferStay: req.PreferStay == nil || *req.PreferStay,
		seed:       seed,
		p:          shared.CloneCompiled(),
		denseOf:    make(map[int64]int, len(shared.In.Tasks)),
		watch:      make(map[chan struct{}]struct{}),
	}
	m := len(sess.p.In.Tasks)
	sess.refOf = make([]int64, m)
	for j := 0; j < m; j++ {
		ref := int64(j + 1)
		sess.refOf[j] = ref
		sess.denseOf[ref] = j
	}
	sess.nextRef = int64(m + 1)

	sess.mu.Lock()
	defer sess.mu.Unlock()
	s.met.scheduled.Add(1)
	if status, err := sess.solveLocked(ctx, s, r, tr); err != nil {
		return status, err
	}

	s.sessMu.Lock()
	s.sessions[sess.id] = sess
	s.sessMu.Unlock()
	s.met.sessionsCreated.Add(1)
	s.cfg.Logger.Info("session created",
		"trace_id", traceIDFrom(r.Context()),
		"session_id", sess.id,
		"tasks", len(sess.p.In.Tasks))

	resp := sessionResponse{
		SessionID:   sess.id,
		sessionView: sess.view,
		ElapsedMS:   float64(time.Since(t0)) / float64(time.Millisecond),
	}
	if tr != nil {
		resp.TraceID = traceIDFrom(r.Context())
		resp.Trace = tr.Tree()
	}
	s.writeJSON(w, http.StatusCreated, resp)
	return 0, nil
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	view := sess.view
	sess.mu.Unlock()
	s.writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	t0 := time.Now()
	status, err := s.sessionPatch(w, r, t0)
	if err != nil {
		if status == statusClientGone {
			s.met.recordStatus(status)
		} else {
			s.writeError(w, status, err.Error())
		}
	}
	s.met.recordLatency(time.Since(t0))
}

func (s *Server) sessionPatch(w http.ResponseWriter, r *http.Request, t0 time.Time) (int, error) {
	if s.draining.Load() {
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		return http.StatusServiceUnavailable, errors.New("draining")
	}
	sess := s.lookupSession(r.PathValue("id"))
	if sess == nil {
		return http.StatusNotFound, errors.New("no such session")
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req sessionPatchRequest
	tDecode := time.Now()
	if status, err := decodeStrictBody(r.Body, &req); err != nil {
		return status, err
	}
	var tr *obs.Trace
	if req.Trace {
		tr = obs.New()
		tr.Span("decode", tDecode, time.Since(tDecode))
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

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.closed {
		return http.StatusGone, errors.New("session closed")
	}

	// Two-phase mutation handling: validate the whole batch against the
	// session's current (plus batch-simulated) task set, then apply — the
	// apply phase cannot fail, so a rejected batch changes nothing.
	psp := tr.Start("delta_patch").Int("mutations", int64(len(req.Mutations)))
	tasks, err := sess.validateMutationsLocked(req.Mutations)
	if err != nil {
		psp.End()
		return http.StatusBadRequest, err
	}
	refs := sess.applyMutationsLocked(req.Mutations, tasks)
	psp.End()
	s.met.sessionMutations.Add(int64(len(req.Mutations)))

	s.met.scheduled.Add(1)
	if status, err := sess.solveLocked(ctx, s, r, tr); err != nil {
		return status, err
	}

	resp := sessionResponse{
		SessionID:   sess.id,
		sessionView: sess.view,
		Refs:        refs,
		ElapsedMS:   float64(time.Since(t0)) / float64(time.Millisecond),
	}
	if tr != nil {
		resp.TraceID = traceIDFrom(r.Context())
		resp.Trace = tr.Tree()
	}
	s.writeJSON(w, http.StatusOK, resp)
	return 0, nil
}

// validateMutationsLocked checks every mutation of a batch without
// touching the problem: ops well-formed, added tasks valid for this
// instance's parameters, removed refs resolvable at their point in the
// batch. It returns the decoded tasks of the add ops, in op order.
func (sess *session) validateMutationsLocked(muts []sessionMutation) ([]model.Task, error) {
	var tasks []model.Task
	removed := make(map[int64]bool)
	added := make(map[int64]bool)
	next := sess.nextRef
	live := len(sess.refOf)
	for idx, mu := range muts {
		switch mu.Op {
		case "add":
			if mu.Task == nil {
				return nil, fmt.Errorf("mutation %d: \"add\" requires \"task\"", idx)
			}
			t := instio.TaskFromFile(*mu.Task, live)
			if err := sess.p.In.CheckTask(t); err != nil {
				return nil, fmt.Errorf("mutation %d: %v", idx, err)
			}
			tasks = append(tasks, t)
			added[next] = true
			next++
			live++
		case "remove", "complete":
			known := added[mu.Ref]
			if !known {
				_, ok := sess.denseOf[mu.Ref]
				known = ok && !removed[mu.Ref]
			}
			if !known {
				return nil, fmt.Errorf("mutation %d: no task with ref %d", idx, mu.Ref)
			}
			removed[mu.Ref] = true
			delete(added, mu.Ref)
			live--
		default:
			return nil, fmt.Errorf("mutation %d: unknown op %q (want add, remove or complete)", idx, mu.Op)
		}
	}
	return tasks, nil
}

// applyMutationsLocked applies a validated batch through the delta
// operations, maintaining the ref ↔ dense-index mapping across the
// swap-remove renumbering and feeding every dirty charger set into the
// warm start. It returns the refs assigned to the batch's adds.
func (sess *session) applyMutationsLocked(muts []sessionMutation, tasks []model.Task) []int64 {
	var refs []int64
	nextTask := 0
	for _, mu := range muts {
		var dirty []int
		switch mu.Op {
		case "add":
			t := tasks[nextTask]
			nextTask++
			var err error
			dirty, err = sess.p.AddTask(t)
			if err != nil {
				panic(fmt.Sprintf("serve: validated add failed: %v", err))
			}
			ref := sess.nextRef
			sess.nextRef++
			sess.refOf = append(sess.refOf, ref)
			sess.denseOf[ref] = len(sess.refOf) - 1
			refs = append(refs, ref)
		default: // "remove" / "complete", validated above
			dense := sess.denseOf[mu.Ref]
			var err error
			dirty, err = sess.p.RemoveTask(dense)
			if err != nil {
				panic(fmt.Sprintf("serve: validated remove failed: %v", err))
			}
			last := len(sess.refOf) - 1
			if dense != last {
				moved := sess.refOf[last]
				sess.refOf[dense] = moved
				sess.denseOf[moved] = dense
			}
			sess.refOf = sess.refOf[:last]
			delete(sess.denseOf, mu.Ref)
		}
		if sess.warm != nil {
			sess.warm.MarkDirty(dirty)
		}
	}
	return refs
}

// solveLocked runs one warm solve of the session's problem and, on
// success, advances the revision and wakes subscribers. A cancelled or
// timed-out solve leaves the revision untouched (the applied mutations
// stay, accumulated into the warm dirty set) and returns the same status
// mapping as /v1/schedule.
func (sess *session) solveLocked(ctx context.Context, s *Server, r *http.Request, tr *obs.Trace) (int, error) {
	opt := core.Options{
		Trace:      tr,
		Colors:     sess.colors,
		Samples:    sess.samples,
		PreferStay: sess.preferStay,
		Workers:    s.cfg.CoreWorkers,
		// Warm reuse is component-granular, so sessions always take the
		// shard-and-stitch path — bit-identical utility by the stitching
		// contract, -1 padding past each component's horizon.
		Shard:       core.ShardOn,
		Rng:         mrand.New(mrand.NewSource(sess.seed)),
		Incumbent:   sess.warm,
		CollectWarm: true,
	}
	// A request that is already dead (client gone, timeout burned on queue
	// wait) gets no solve at all — its mutations are applied and dirty,
	// and the next PATCH picks them up.
	err := ctx.Err()
	var res core.Result
	if err == nil {
		res, err = core.TabularGreedyCtx(ctx, sess.p, opt)
	}
	if err != nil {
		if r.Context().Err() != nil {
			return statusClientGone, errors.New("client went away mid-solve")
		}
		return http.StatusGatewayTimeout,
			fmt.Errorf("solve exceeded the %s request timeout", s.cfg.RequestTimeout)
	}
	sess.warm = res.Warm
	sess.rev++
	sess.view = sessionView{
		Rev:        sess.rev,
		Tasks:      len(sess.p.In.Tasks),
		Slots:      res.Schedule.Slots(),
		Schedule:   res.Schedule.Policy,
		RUtility:   res.RUtility,
		Shards:     res.Shards,
		WarmReused: res.WarmReused,
	}
	for ch := range sess.watch {
		select {
		case ch <- struct{}{}:
		default: // already signalled; the subscriber will catch up
		}
	}
	s.met.sessionSolves.Add(1)
	s.met.sessionWarmReused.Add(int64(res.WarmReused))
	s.met.recordKernel(res.Kernel)
	s.met.recordShards(res.Shards)
	return 0, nil
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.sessMu.Lock()
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.sessMu.Unlock()
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "no such session")
		return
	}
	sess.mu.Lock()
	sess.closed = true
	rev := sess.rev
	for ch := range sess.watch {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
	sess.mu.Unlock()
	s.met.sessionsClosed.Add(1)
	s.cfg.Logger.Info("session closed",
		"trace_id", traceIDFrom(r.Context()),
		"session_id", id,
		"rev", rev)
	s.writeJSON(w, http.StatusOK, map[string]any{"session_id": id, "closed": true})
}

// handleSessionSubscribe streams schedule revisions as server-sent
// events: one "schedule" event per revision (coalescing — a subscriber
// that falls behind skips intermediate revisions and gets the latest),
// then a final "close" event when the session is deleted. The stream ends
// when the client disconnects, the session closes, or the server drains.
func (s *Server) handleSessionSubscribe(w http.ResponseWriter, r *http.Request) {
	sess := s.lookupSession(r.PathValue("id"))
	if sess == nil {
		s.writeError(w, http.StatusNotFound, "no such session")
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	ch := make(chan struct{}, 1)
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		s.writeError(w, http.StatusGone, "session closed")
		return
	}
	sess.watch[ch] = struct{}{}
	sess.mu.Unlock()
	defer func() {
		sess.mu.Lock()
		delete(sess.watch, ch)
		sess.mu.Unlock()
	}()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	s.met.recordStatus(http.StatusOK)

	enc := json.NewEncoder(w)
	sent := int64(0) // last revision written; 0 = nothing yet
	for {
		sess.mu.Lock()
		view := sess.view
		closed := sess.closed
		sess.mu.Unlock()
		if view.Rev > sent {
			fmt.Fprintf(w, "event: schedule\ndata: ")
			_ = enc.Encode(view) // Encode appends the newline
			fmt.Fprintf(w, "\n")
			fl.Flush()
			sent = view.Rev
		}
		if closed || s.draining.Load() {
			fmt.Fprintf(w, "event: close\ndata: {}\n\n")
			fl.Flush()
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ch:
		}
	}
}

// decodeStrictBody decodes a JSON request body with unknown fields and
// trailing data rejected, mapping oversized bodies to 413.
func decodeStrictBody(body interface{ Read([]byte) (int, error) }, v any) (int, error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooLarge.Limit)
		}
		return http.StatusBadRequest, fmt.Errorf("malformed request: %v", err)
	}
	if dec.More() {
		return http.StatusBadRequest, errors.New("malformed request: trailing data after JSON body")
	}
	return 0, nil
}
