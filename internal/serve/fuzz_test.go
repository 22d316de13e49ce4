package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"haste/internal/workload"
)

// fuzzServer is shared across fuzz executions (the cache surviving between
// inputs is exactly the production shape — a byte-identical re-send must
// hit the memo, a mutated one must recompile). Modest limits keep
// pathological inputs cheap; the caps are part of what is being fuzzed.
var (
	fuzzOnce sync.Once
	fuzzSrv  *Server
)

func fuzzServer() *Server {
	fuzzOnce.Do(func() {
		fuzzSrv = New(Config{
			CacheSize:      8,
			MaxConcurrent:  2,
			QueueDepth:     4,
			MaxSamples:     64,
			MaxSlots:       512,
			MaxBodyBytes:   1 << 20,
			RequestTimeout: 2 * time.Second,
		})
	})
	return fuzzSrv
}

// FuzzScheduleHandler: arbitrary bytes POSTed to /v1/schedule, and the
// same bytes POSTed to /v1/session, must never panic the handler and must
// always yield a well-formed JSON document — a schedule on 200/201, an
// {"error", "status"} object otherwise, with the recorded status matching
// the wire status. A session the input creates is deleted again, so the
// session limit never fills.
func FuzzScheduleHandler(f *testing.F) {
	// Valid envelope around a real instance.
	in := workload.SmallScale().Generate(rand.New(rand.NewSource(1)))
	valid := string(bytes.TrimSpace(instanceJSON(f, in)))
	f.Add(`{"instance":` + valid + `}`)
	f.Add(`{"instance":` + valid + `,"colors":3,"samples":6,"seed":42,"kernel_stats":true}`)
	f.Add(`{"instance":` + valid + `,"prefer_stay":false}`)

	// A many-component clustered instance so the fuzzer exercises the
	// shard-and-stitch path, which ShardAuto takes on it.
	clustered := string(bytes.TrimSpace(instanceJSON(f, clusteredInstance(f, 1))))
	f.Add(`{"instance":` + clustered + `}`)
	f.Add(`{"instance":` + clustered + `,"colors":2,"samples":4}`)
	f.Add(`{"instance":` + clustered + `,"colors":3,"samples":6}`)

	// The instio loader's own fuzz seeds, wrapped in the envelope — the
	// handler must reject or accept them exactly as gracefully.
	for _, inst := range []string{
		`{"version":1,"params":{"alpha":1,"beta":1,"radius_m":1,"charge_angle_deg":60,"receive_angle_deg":60,"slot_seconds":60},"chargers":[{"x":0,"y":0}],"tasks":[]}`,
		`{"version":1}`,
		`[]`,
		`{"version":1,"params":{"alpha":1,"beta":0,"radius_m":5,"charge_angle_deg":90,"receive_angle_deg":180,"slot_seconds":1},"chargers":[],"tasks":[{"x":1,"y":1,"phi_deg":0,"release_slot":0,"end_slot":2,"energy_j":10,"weight":1}]}`,
	} {
		f.Add(`{"instance":` + inst + `}`)
	}

	// Malformed envelopes and hostile options.
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`{"instance":null}`)
	f.Add(`{"instance":{},"colors":-100,"samples":-5}`)
	f.Add(`{"instance":{"version":1},"samples":99999999}`)
	f.Add(`{"instance":` + valid + `,"colors":1000000,"seed":-9223372036854775808}`)
	f.Add(`{"instance":` + valid + `}trailing`)
	// Horizon bomb: a single task ending at slot 2e9 must be rejected by
	// the MaxSlots cap, not scheduled (the greedy tables scale with K).
	f.Add(`{"instance":{"version":1,"params":{"alpha":1,"beta":0,"radius_m":5,"charge_angle_deg":90,"receive_angle_deg":180,"slot_seconds":1},"chargers":[{"x":0,"y":0}],"tasks":[{"x":1,"y":1,"phi_deg":0,"release_slot":0,"end_slot":2000000000,"energy_j":10,"weight":1}]}}`)
	f.Add(`{"instance":{"version":1,"params":{"alpha":1e308,"beta":1e308,"radius_m":1e308,"charge_angle_deg":360,"receive_angle_deg":360,"slot_seconds":1e-308},"chargers":[{"x":1e308,"y":-1e308}],"tasks":[{"x":0,"y":0,"phi_deg":1e20,"release_slot":0,"end_slot":1,"energy_j":1e-300,"weight":0}]}}`)

	f.Fuzz(func(t *testing.T, body string) {
		s := fuzzServer()
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader([]byte(body)))
		s.ServeHTTP(rec, req) // must not panic — the fuzzer catches any
		checkJSONResponse(t, rec, body)

		rec = do(s, http.MethodPost, "/v1/session", []byte(body))
		checkJSONResponse(t, rec, body)
		if rec.Code == http.StatusCreated {
			var created sessionResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
				t.Fatal(err)
			}
			if del := do(s, http.MethodDelete, "/v1/session/"+created.SessionID, nil); del.Code != http.StatusOK {
				t.Fatalf("delete of fuzz-created session: status %d", del.Code)
			}
		}
	})
}

// checkJSONResponse asserts the universal response contract: JSON
// Content-Type, a schedule document on 200/201, a consistent
// {"error","status"} object otherwise.
func checkJSONResponse(t *testing.T, rec *httptest.ResponseRecorder, input string) {
	t.Helper()
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q on input %q", ct, input)
	}
	switch rec.Code {
	case http.StatusOK, http.StatusCreated:
		var resp struct {
			Schedule [][]int `json:"schedule"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d body is not a schedule document: %v\n%s", rec.Code, err, rec.Body.Bytes())
		}
		if resp.Schedule == nil {
			t.Fatalf("status %d body has no schedule: %s", rec.Code, rec.Body.Bytes())
		}
	default:
		var er errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil {
			t.Fatalf("status %d body is not a JSON error: %v\n%s", rec.Code, err, rec.Body.Bytes())
		}
		if er.Error == "" || er.Status != rec.Code {
			t.Fatalf("status %d with inconsistent error body: %s", rec.Code, rec.Body.Bytes())
		}
	}
}

// fuzzSession is the long-lived session the PATCH fuzzer mutates, created
// lazily against the shared fuzz server and recreated when a prior input
// grew it past a size bound (accumulated adds would otherwise make later
// executions ever more expensive).
var fuzzSessID string

func fuzzSessionID(t *testing.T) string {
	s := fuzzServer()
	if fuzzSessID != "" {
		if sess := s.lookupSession(fuzzSessID); sess != nil {
			sess.mu.Lock()
			n := len(sess.p.In.Tasks)
			sess.mu.Unlock()
			if n < 200 {
				return fuzzSessID
			}
			do(s, http.MethodDelete, "/v1/session/"+fuzzSessID, nil)
		}
	}
	in := clusteredInstance(t, 77)
	body := `{"instance":` + string(bytes.TrimSpace(instanceJSON(t, in))) + `,"colors":2,"samples":4,"seed":3}`
	rec := do(s, http.MethodPost, "/v1/session", []byte(body))
	if rec.Code != http.StatusCreated {
		t.Fatalf("fuzz session create: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp sessionResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	fuzzSessID = resp.SessionID
	return fuzzSessID
}

// FuzzSessionPatch: arbitrary bytes PATCHed into a live session must
// never panic the handler, must always yield well-formed JSON, and must
// leave the session consistent — readable via GET, zero pooled states
// checked out, task count within the mutation batch's bounds.
func FuzzSessionPatch(f *testing.F) {
	// Well-formed batches, then hostile ones. State carries across inputs
	// (refs get consumed, tasks accumulate) — robustness, not
	// reproducibility, is the contract under fuzz.
	f.Add(`{"mutations":[]}`)
	f.Add(`{"mutations":[{"op":"add","task":{"x":1,"y":1,"phi_deg":0,"release_slot":0,"end_slot":9,"energy_j":500,"weight":1}}]}`)
	f.Add(`{"mutations":[{"op":"remove","ref":1}]}`)
	f.Add(`{"mutations":[{"op":"complete","ref":2}]}`)
	f.Add(`{"mutations":[{"op":"remove","ref":3},{"op":"add","task":{"x":2,"y":3,"phi_deg":90,"release_slot":1,"end_slot":8,"energy_j":400,"weight":2}}]}`)
	f.Add(`{"mutations":[{"op":"add","task":{"x":1e999,"y":0,"phi_deg":0,"release_slot":0,"end_slot":9,"energy_j":10,"weight":1}}]}`)
	f.Add(`{"mutations":[{"op":"add","task":{"x":0,"y":0,"phi_deg":1e308,"release_slot":5,"end_slot":5,"energy_j":-1,"weight":-2}}]}`)
	f.Add(`{"mutations":[{"op":"remove","ref":-9223372036854775808},{"op":"remove","ref":9223372036854775807}]}`)
	f.Add(`{"mutations":[{"op":"pause"}]}`)
	f.Add(`{"mutations":[{"op":"add"}]}`)
	f.Add(`{"mutations":[{"op":"remove","ref":1},{"op":"remove","ref":1}]}`)
	f.Add(``)
	f.Add(`{`)
	f.Add(`null`)
	f.Add(`{"mutations":null}`)
	f.Add(`{"mutationz":[]}`)
	f.Add(`{"mutations":[]}trailing`)

	f.Fuzz(func(t *testing.T, body string) {
		s := fuzzServer()
		id := fuzzSessionID(t)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPatch, "/v1/session/"+id, bytes.NewReader([]byte(body)))
		s.ServeHTTP(rec, req) // must not panic — the fuzzer catches any
		checkJSONResponse(t, rec, body)

		sess := s.lookupSession(id)
		if sess == nil {
			t.Fatalf("session vanished after PATCH %q", body)
		}
		sess.mu.Lock()
		leaked := sess.p.StatesInUse()
		tasks := len(sess.p.In.Tasks)
		viewTasks := sess.view.Tasks
		sess.mu.Unlock()
		if leaked != 0 {
			t.Fatalf("%d pooled states checked out after PATCH %q", leaked, body)
		}
		if rec.Code == http.StatusOK && viewTasks != tasks {
			t.Fatalf("view reports %d tasks, problem has %d after PATCH %q", viewTasks, tasks, body)
		}
		if rec := do(s, http.MethodGet, "/v1/session/"+id, nil); rec.Code != http.StatusOK {
			t.Fatalf("GET after PATCH %q: status %d", body, rec.Code)
		}
	})
}
