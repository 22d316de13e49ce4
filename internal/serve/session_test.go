package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/model"
)

// parseWire decodes instance bytes exactly as the server does, so a test
// mirror starts from the same parsed instance the session compiled.
func parseWire(t testing.TB, raw []byte) *model.Instance {
	t.Helper()
	var f instio.File
	if err := strictUnmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	in, err := f.ToInstance()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sessionTask builds an exactly-representable task near a charger of the
// instance: integral offsets and a zero orientation survive every wire
// round trip bit-for-bit, so mirror instances stay identical to what the
// server applied.
func sessionTask(in *model.Instance, chargerIdx, variant int) instio.FileTask {
	c := in.Chargers[chargerIdx%len(in.Chargers)]
	dur := 2*in.Params.Tau + 3 + variant%3
	return instio.FileTask{
		X:       c.Pos.X + float64(variant%5) - 2,
		Y:       c.Pos.Y + float64(variant%3) - 1,
		PhiDeg:  0,
		Release: variant % 4,
		End:     variant%4 + dur,
		Energy:  2000 + float64(variant)*250,
		Weight:  1 + float64(variant%4),
	}
}

func do(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(method, path, strings.NewReader(string(body)))
	s.ServeHTTP(rec, req)
	return rec
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// createSession opens a session over raw instance bytes and returns the
// decoded response.
func createSession(t testing.TB, s *Server, raw []byte, opts string) sessionResponse {
	t.Helper()
	body := `{"instance":` + strings.TrimSpace(string(raw)) + opts + `}`
	rec := do(s, http.MethodPost, "/v1/session", []byte(body))
	if rec.Code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp sessionResponse
	decodeResponse(t, rec.Body.Bytes(), &resp)
	if resp.SessionID == "" || resp.Rev != 1 {
		t.Fatalf("create: bad response %+v", resp)
	}
	return resp
}

// sessionOptions are the scheduling options every session test fixes, and
// their core equivalent for from-scratch reference solves.
const sessionOptsJSON = `,"colors":2,"samples":4,"seed":9`

func sessionRefOptions(workers int) core.Options {
	return core.Options{Colors: 2, Samples: 4, PreferStay: true, Workers: workers,
		Shard: core.ShardOn, Rng: rand.New(rand.NewSource(9))}
}

// TestSessionLifecycle drives a session end to end — create, a mutation
// walk over adds/removes/completes with a client-side mirror, GET, delete
// — and pins the acceptance criterion: after every PATCH the session's
// schedule is bit-identical to a from-scratch /v1/schedule solve of the
// mirrored instance, while the warm chain actually reuses components.
func TestSessionLifecycle(t *testing.T) {
	s := New(Config{})
	in := clusteredInstance(t, 2)
	raw := instanceJSON(t, in)
	resp := createSession(t, s, raw, sessionOptsJSON)
	id := resp.SessionID

	mirror := parseWire(t, raw)
	refs := make([]int64, len(mirror.Tasks))
	for j := range refs {
		refs[j] = int64(j + 1)
	}
	if resp.Tasks != len(mirror.Tasks) {
		t.Fatalf("create reports %d tasks, instance has %d", resp.Tasks, len(mirror.Tasks))
	}

	// The creation solve must already match a cold from-scratch solve.
	requireSessionMatchesCold(t, s, resp.sessionView, mirror)

	removeRef := func(ref int64) {
		for j, r := range refs {
			if r != ref {
				continue
			}
			last := len(refs) - 1
			mirror.Tasks[j] = mirror.Tasks[last]
			mirror.Tasks[j].ID = j
			mirror.Tasks = mirror.Tasks[:last]
			refs[j] = refs[last]
			refs = refs[:last]
			return
		}
		t.Fatalf("mirror has no ref %d", ref)
	}

	warmTotal := 0
	patches := []struct {
		name string
		muts []sessionMutation
	}{
		{"remove+add", []sessionMutation{
			{Op: "remove", Ref: 3},
			{Op: "add", Task: taskPtr(sessionTask(mirror, 0, 1))},
		}},
		{"complete", []sessionMutation{{Op: "complete", Ref: 7}}},
		{"adds", []sessionMutation{
			{Op: "add", Task: taskPtr(sessionTask(mirror, 2, 4))},
			{Op: "add", Task: taskPtr(sessionTask(mirror, 4, 6))},
		}},
		{"empty-resolve", nil},
	}
	nextRef := int64(len(mirror.Tasks) + 1)
	for pi, pc := range patches {
		body := mustJSON(t, sessionPatchRequest{Mutations: pc.muts})
		rec := do(s, http.MethodPatch, "/v1/session/"+id, body)
		if rec.Code != http.StatusOK {
			t.Fatalf("patch %s: status %d: %s", pc.name, rec.Code, rec.Body.Bytes())
		}
		var pr sessionResponse
		decodeResponse(t, rec.Body.Bytes(), &pr)
		if pr.Rev != int64(pi)+2 {
			t.Fatalf("patch %s: rev %d, want %d", pc.name, pr.Rev, pi+2)
		}

		adds := 0
		for _, mu := range pc.muts {
			switch mu.Op {
			case "add":
				tk := instio.TaskFromFile(*mu.Task, len(mirror.Tasks))
				mirror.Tasks = append(mirror.Tasks, tk)
				refs = append(refs, nextRef)
				if pr.Refs[adds] != nextRef {
					t.Fatalf("patch %s: add got ref %d, want %d", pc.name, pr.Refs[adds], nextRef)
				}
				nextRef++
				adds++
			default:
				removeRef(mu.Ref)
			}
		}
		if adds != len(pr.Refs) {
			t.Fatalf("patch %s: %d refs returned for %d adds", pc.name, len(pr.Refs), adds)
		}
		if pr.Tasks != len(mirror.Tasks) {
			t.Fatalf("patch %s: session has %d tasks, mirror %d", pc.name, pr.Tasks, len(mirror.Tasks))
		}
		warmTotal += pr.WarmReused
		requireSessionMatchesCold(t, s, pr.sessionView, mirror)

		// GET returns exactly the revision the PATCH reported.
		grec := do(s, http.MethodGet, "/v1/session/"+id, nil)
		var view sessionView
		decodeResponse(t, grec.Body.Bytes(), &view)
		if view.Rev != pr.Rev || schedulesEqual(view.Schedule, pr.Schedule) != nil {
			t.Fatalf("patch %s: GET view diverges from PATCH response", pc.name)
		}
	}
	if warmTotal == 0 {
		t.Fatal("no component was ever warm-reused across the walk")
	}

	snap := s.Metrics()
	if snap.Sessions.Open != 1 || snap.Sessions.Created != 1 {
		t.Fatalf("session gauges: %+v", snap.Sessions)
	}
	if want := int64(5); snap.Sessions.Solves != want { // create + 4 patches
		t.Fatalf("solves_total = %d, want %d", snap.Sessions.Solves, want)
	}
	if snap.Sessions.Mutations != 5 {
		t.Fatalf("mutations_total = %d, want 5", snap.Sessions.Mutations)
	}
	if snap.Sessions.WarmReused != int64(warmTotal) {
		t.Fatalf("warm_reused_components_total = %d, want %d", snap.Sessions.WarmReused, warmTotal)
	}

	if rec := do(s, http.MethodDelete, "/v1/session/"+id, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	if rec := do(s, http.MethodGet, "/v1/session/"+id, nil); rec.Code != http.StatusNotFound {
		t.Fatalf("GET after delete: status %d, want 404", rec.Code)
	}
	if rec := do(s, http.MethodPatch, "/v1/session/"+id, []byte(`{"mutations":[]}`)); rec.Code != http.StatusNotFound {
		t.Fatalf("PATCH after delete: status %d, want 404", rec.Code)
	}
	if s.SessionCount() != 0 {
		t.Fatalf("SessionCount = %d after delete", s.SessionCount())
	}
}

func taskPtr(ft instio.FileTask) *instio.FileTask { return &ft }

// requireSessionMatchesCold asserts a session view is bit-identical to
// both a direct cold core solve of the mirror instance and (closing the
// loop over the wire format) a /v1/schedule request for it. The session
// tests' clustered instances decompose past core.DefaultShardThreshold,
// so that request shards under ShardAuto like the session does.
func requireSessionMatchesCold(t *testing.T, s *Server, view sessionView, mirror *model.Instance) {
	t.Helper()
	cp := &model.Instance{Chargers: mirror.Chargers,
		Tasks:  append([]model.Task(nil), mirror.Tasks...),
		Params: mirror.Params, Utility: mirror.Utility}
	fresh, err := core.NewProblem(cp)
	if err != nil {
		t.Fatal(err)
	}
	cold := core.TabularGreedy(fresh, sessionRefOptions(s.cfg.CoreWorkers))
	if cold.RUtility != view.RUtility {
		t.Fatalf("session r_utility %v, cold solve %v", view.RUtility, cold.RUtility)
	}
	if err := schedulesEqual(view.Schedule, cold.Schedule.Policy); err != nil {
		t.Fatalf("session schedule diverges from cold core solve: %v", err)
	}

	rec := post(s, "/v1/schedule", requestBody(t, instanceJSON(t, cp),
		map[string]any{"colors": 2, "samples": 4, "seed": 9}))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/schedule reference: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var sr scheduleResponse
	decodeResponse(t, rec.Body.Bytes(), &sr)
	if sr.Shards == 0 {
		t.Fatal("/v1/schedule reference ran monolithic: the mirror no longer decomposes into enough components")
	}
	if sr.RUtility != view.RUtility {
		t.Fatalf("session r_utility %v, /v1/schedule %v", view.RUtility, sr.RUtility)
	}
	if err := schedulesEqual(view.Schedule, sr.Schedule); err != nil {
		t.Fatalf("session schedule diverges from /v1/schedule: %v", err)
	}
}

// TestSessionConcurrentPatches hammers one session with parallel PATCHes
// (run under -race in CI): every mutation must land exactly once, the
// final schedule must be bit-identical to a from-scratch solve of the
// session's final task table, and no pooled state may leak.
func TestSessionConcurrentPatches(t *testing.T) {
	s := New(Config{MaxConcurrent: 4})
	in := clusteredInstance(t, 3)
	resp := createSession(t, s, instanceJSON(t, in), sessionOptsJSON)
	id := resp.SessionID

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var body []byte
			if g%4 == 3 {
				// A removal racing the adds; initial refs 1..m are all valid.
				body = mustJSON(t, sessionPatchRequest{Mutations: []sessionMutation{
					{Op: "remove", Ref: int64(g)},
				}})
			} else {
				body = mustJSON(t, sessionPatchRequest{Mutations: []sessionMutation{
					{Op: "add", Task: taskPtr(sessionTask(in, g, g))},
				}})
			}
			rec := do(s, http.MethodPatch, "/v1/session/"+id, body)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("goroutine %d: status %d: %s", g, rec.Code, rec.Body.Bytes())
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	sess := s.lookupSession(id)
	sess.mu.Lock()
	finalView := sess.view
	finalIn := &model.Instance{Chargers: sess.p.In.Chargers,
		Tasks:  append([]model.Task(nil), sess.p.In.Tasks...),
		Params: sess.p.In.Params, Utility: sess.p.In.Utility}
	leaked := sess.p.StatesInUse()
	sess.mu.Unlock()

	if leaked != 0 {
		t.Fatalf("%d pooled states still checked out after all PATCHes", leaked)
	}
	if finalView.Rev != workers+1 {
		t.Fatalf("rev %d after %d patches, want %d", finalView.Rev, workers, workers+1)
	}
	wantTasks := len(in.Tasks) + 6 - 2 // 6 adds, 2 removes
	if len(finalIn.Tasks) != wantTasks {
		t.Fatalf("final task table has %d tasks, want %d", len(finalIn.Tasks), wantTasks)
	}
	fresh, err := core.NewProblem(finalIn)
	if err != nil {
		t.Fatal(err)
	}
	cold := core.TabularGreedy(fresh, sessionRefOptions(s.cfg.CoreWorkers))
	if cold.RUtility != finalView.RUtility {
		t.Fatalf("final r_utility %v, from-scratch %v", finalView.RUtility, cold.RUtility)
	}
	if err := schedulesEqual(finalView.Schedule, cold.Schedule.Policy); err != nil {
		t.Fatalf("final schedule diverges from from-scratch solve: %v", err)
	}
}

// TestSessionCancelledPatch pins the abandonment contract: a PATCH whose
// client is gone keeps its (already applied) mutations, does not advance
// the revision, leaks no pooled state, and a later empty PATCH re-solves
// to exactly the from-scratch schedule of the accumulated task table.
func TestSessionCancelledPatch(t *testing.T) {
	s := New(Config{})
	in := clusteredInstance(t, 4)
	resp := createSession(t, s, instanceJSON(t, in), sessionOptsJSON)
	id := resp.SessionID
	sess := s.lookupSession(id)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	body := mustJSON(t, sessionPatchRequest{Mutations: []sessionMutation{
		{Op: "add", Task: taskPtr(sessionTask(in, 1, 2))},
	}})
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPatch, "/v1/session/"+id, strings.NewReader(string(body))).WithContext(ctx)
	s.ServeHTTP(rec, req)

	sess.mu.Lock()
	rev, tasks, leaked := sess.rev, len(sess.p.In.Tasks), sess.p.StatesInUse()
	sess.mu.Unlock()
	if rev != 1 {
		t.Fatalf("cancelled PATCH advanced rev to %d", rev)
	}
	if tasks != len(in.Tasks)+1 {
		t.Fatalf("cancelled PATCH lost its mutation: %d tasks, want %d", tasks, len(in.Tasks)+1)
	}
	if leaked != 0 {
		t.Fatalf("%d pooled states leaked by the abandoned solve", leaked)
	}
	if got := s.Metrics().ByStatus["499"]; got < 1 {
		t.Fatalf("client-gone PATCH not recorded: 499 count %d", got)
	}

	rec2 := do(s, http.MethodPatch, "/v1/session/"+id, []byte(`{"mutations":[]}`))
	if rec2.Code != http.StatusOK {
		t.Fatalf("recovery PATCH: status %d: %s", rec2.Code, rec2.Body.Bytes())
	}
	var pr sessionResponse
	decodeResponse(t, rec2.Body.Bytes(), &pr)
	if pr.Rev != 2 || pr.Tasks != len(in.Tasks)+1 {
		t.Fatalf("recovery PATCH: rev %d tasks %d, want rev 2 tasks %d", pr.Rev, pr.Tasks, len(in.Tasks)+1)
	}
	mirror := parseWire(t, instanceJSON(t, in))
	mirror.Tasks = append(mirror.Tasks, instio.TaskFromFile(sessionTask(in, 1, 2), len(mirror.Tasks)))
	requireSessionMatchesCold(t, s, pr.sessionView, mirror)
}

// TestSessionTimeoutRetryAfter: a session solve that cannot finish within
// the request timeout answers 504 with Retry-After, like /v1/schedule.
func TestSessionTimeoutRetryAfter(t *testing.T) {
	s := New(Config{RequestTimeout: time.Nanosecond})
	body := requestBody(t, instanceJSON(t, testInstance(t, 43)), nil)
	rec := do(s, http.MethodPost, "/v1/session", body)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", rec.Code, rec.Body.Bytes())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("session 504 missing Retry-After")
	}
	var er errorResponse
	decodeResponse(t, rec.Body.Bytes(), &er)
	if n := s.SessionCount(); n != 0 {
		t.Fatalf("timed-out create left %d sessions open", n)
	}
}

// TestSessionValidation pins the 4xx surface: malformed bodies, invalid
// tasks (including non-finite coordinates — satellite of the finiteness
// bugfix), unknown refs, batch atomicity, unknown ops, the session limit
// and unknown session IDs.
func TestSessionValidation(t *testing.T) {
	s := New(Config{MaxSessions: 1, MaxSlots: 64})
	in := clusteredInstance(t, 5)
	raw := instanceJSON(t, in)
	resp := createSession(t, s, raw, sessionOptsJSON)
	id := resp.SessionID
	tasks0 := resp.Tasks

	patch := func(body string) *httptest.ResponseRecorder {
		return do(s, http.MethodPatch, "/v1/session/"+id, []byte(body))
	}
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed json":   {`{"mutations":`, http.StatusBadRequest},
		"unknown field":    {`{"mutationz":[]}`, http.StatusBadRequest},
		"unknown op":       {`{"mutations":[{"op":"pause","ref":1}]}`, http.StatusBadRequest},
		"add without task": {`{"mutations":[{"op":"add"}]}`, http.StatusBadRequest},
		"unknown ref":      {`{"mutations":[{"op":"remove","ref":99999}]}`, http.StatusBadRequest},
		"double remove":    {`{"mutations":[{"op":"remove","ref":1},{"op":"remove","ref":1}]}`, http.StatusBadRequest},
		"non-finite coordinate": {`{"mutations":[{"op":"add","task":` +
			`{"x":1e999,"y":0,"phi_deg":0,"release_slot":0,"end_slot":9,"energy_j":10,"weight":1}}]}`,
			http.StatusBadRequest},
		"empty window": {`{"mutations":[{"op":"add","task":` +
			`{"x":0,"y":0,"phi_deg":0,"release_slot":4,"end_slot":4,"energy_j":10,"weight":1}}]}`,
			http.StatusBadRequest},
		// The horizon limit /v1/schedule enforces holds for adds too; the
		// valid add ahead of the offending one is not applied either.
		"horizon past MaxSlots": {`{"mutations":[` +
			`{"op":"add","task":{"x":0,"y":0,"phi_deg":0,"release_slot":0,"end_slot":9,"energy_j":10,"weight":1}},` +
			`{"op":"add","task":{"x":0,"y":0,"phi_deg":0,"release_slot":0,"end_slot":5000,"energy_j":10,"weight":1}}]}`,
			http.StatusBadRequest},
	} {
		rec := patch(tc.body)
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", name, rec.Code, tc.want, rec.Body.Bytes())
		}
		var er errorResponse
		decodeResponse(t, rec.Body.Bytes(), &er)
		if er.Status != rec.Code || er.Error == "" {
			t.Errorf("%s: inconsistent error body %s", name, rec.Body.Bytes())
		}
	}

	// Batch atomicity: a valid add followed by an invalid one applies
	// neither — the task count and revision are untouched.
	atomic := mustJSON(t, sessionPatchRequest{Mutations: []sessionMutation{
		{Op: "add", Task: taskPtr(sessionTask(in, 0, 1))},
		{Op: "remove", Ref: 424242},
	}})
	if rec := patch(string(atomic)); rec.Code != http.StatusBadRequest {
		t.Fatalf("atomicity batch: status %d, want 400", rec.Code)
	}
	grec := do(s, http.MethodGet, "/v1/session/"+id, nil)
	var view sessionView
	decodeResponse(t, grec.Body.Bytes(), &view)
	if view.Rev != 1 || view.Tasks != tasks0 {
		t.Fatalf("rejected batch mutated the session: rev %d tasks %d", view.Rev, view.Tasks)
	}

	// The strict create decoder answers an unknown option — the removed
	// "lazy" field included — with 400, before the session limit.
	lazyBody := `{"instance":` + strings.TrimSpace(string(raw)) + `,"lazy":true}`
	if rec := do(s, http.MethodPost, "/v1/session", []byte(lazyBody)); rec.Code != http.StatusBadRequest {
		t.Fatalf("create with lazy: status %d, want 400", rec.Code)
	}

	// Session limit: MaxSessions=1 refuses a second create with 429.
	body := `{"instance":` + strings.TrimSpace(string(raw)) + `}`
	if rec := do(s, http.MethodPost, "/v1/session", []byte(body)); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second create: status %d, want 429", rec.Code)
	}

	// Unknown session ID → 404 on every session route.
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/v1/session/nope"},
		{http.MethodPatch, "/v1/session/nope"},
		{http.MethodDelete, "/v1/session/nope"},
		{http.MethodGet, "/v1/session/nope/subscribe"},
	} {
		body := ""
		if probe.method == http.MethodPatch {
			body = `{"mutations":[]}`
		}
		if rec := do(s, probe.method, probe.path, []byte(body)); rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, rec.Code)
		}
	}

	// A non-finite charger coordinate in the instance is refused at
	// session creation (and by /v1/schedule) with 400, not compiled. The
	// open session is deleted first so the probe reaches validation
	// rather than the session limit.
	if rec := do(s, http.MethodDelete, "/v1/session/"+id, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	bad := `{"version":1,"params":{"alpha":1,"beta":0,"radius_m":5,"charge_angle_deg":90,` +
		`"receive_angle_deg":180,"slot_seconds":1},"chargers":[{"x":1e999,"y":0}],"tasks":[]}`
	for _, path := range []string{"/v1/session", "/v1/schedule"} {
		if rec := do(s, http.MethodPost, path, []byte(`{"instance":`+bad+`}`)); rec.Code != http.StatusBadRequest {
			t.Fatalf("non-finite instance on %s: status %d, want 400", path, rec.Code)
		}
	}
}

// TestSessionConcurrentCreates pins MaxSessions under concurrent creates:
// a create reserves its place under the limit before solving, so of many
// simultaneous creates exactly MaxSessions succeed, and a create that
// fails after reserving gives its place back.
func TestSessionConcurrentCreates(t *testing.T) {
	const limit = 2
	s := New(Config{MaxSessions: limit})
	raw := instanceJSON(t, clusteredInstance(t, 8))

	// Rejected after the reservation (the instance does not decode), more
	// often than the limit: the places must come back.
	for i := 0; i < limit+1; i++ {
		if rec := do(s, http.MethodPost, "/v1/session", []byte(`{"instance":{"bogus":1}}`)); rec.Code != http.StatusBadRequest {
			t.Fatalf("bad create %d: status %d, want 400", i, rec.Code)
		}
	}

	body := []byte(`{"instance":` + strings.TrimSpace(string(raw)) + sessionOptsJSON + `}`)
	const creates = 8
	codes := make([]int, creates)
	var wg sync.WaitGroup
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(s, http.MethodPost, "/v1/session", body).Code
		}(i)
	}
	wg.Wait()
	created := 0
	for i, code := range codes {
		switch code {
		case http.StatusCreated:
			created++
		case http.StatusTooManyRequests:
		default:
			t.Fatalf("create %d: status %d", i, code)
		}
	}
	if created != limit {
		t.Fatalf("%d of %d concurrent creates got 201, want %d", created, creates, limit)
	}
	if n := s.SessionCount(); n != limit {
		t.Fatalf("SessionCount() = %d, want %d", n, limit)
	}
}

// TestSessionSubscribe exercises the SSE stream against a real HTTP
// server: the subscriber receives the current revision immediately, a
// revision event after a PATCH, and a close event on DELETE.
func TestSessionSubscribe(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s)
	defer ts.Close()

	in := clusteredInstance(t, 6)
	resp := createSession(t, s, instanceJSON(t, in), sessionOptsJSON)
	id := resp.SessionID

	sub, err := http.Get(ts.URL + "/v1/session/" + id + "/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Body.Close()
	if sub.StatusCode != http.StatusOK {
		t.Fatalf("subscribe: status %d", sub.StatusCode)
	}
	if ct := sub.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscribe: Content-Type %q", ct)
	}
	events := bufio.NewScanner(sub.Body)
	readEvent := func() (string, sessionView) {
		t.Helper()
		var name string
		var view sessionView
		for events.Scan() {
			line := events.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				payload := strings.TrimPrefix(line, "data: ")
				if err := json.Unmarshal([]byte(payload), &view); err != nil {
					t.Fatalf("bad SSE payload %q: %v", payload, err)
				}
			case line == "":
				return name, view
			}
		}
		t.Fatalf("stream ended early: %v", events.Err())
		return "", view
	}

	name, view := readEvent()
	if name != "schedule" || view.Rev != 1 {
		t.Fatalf("first event %q rev %d, want schedule rev 1", name, view.Rev)
	}

	body := mustJSON(t, sessionPatchRequest{Mutations: []sessionMutation{
		{Op: "add", Task: taskPtr(sessionTask(in, 0, 3))},
	}})
	if rec := do(s, http.MethodPatch, "/v1/session/"+id, body); rec.Code != http.StatusOK {
		t.Fatalf("patch: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	name, view = readEvent()
	if name != "schedule" || view.Rev != 2 {
		t.Fatalf("post-PATCH event %q rev %d, want schedule rev 2", name, view.Rev)
	}

	if rec := do(s, http.MethodDelete, "/v1/session/"+id, nil); rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	name, _ = readEvent()
	if name != "close" {
		t.Fatalf("final event %q, want close", name)
	}
}
