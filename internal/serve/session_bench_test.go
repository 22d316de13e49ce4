package serve

import (
	"math/rand"
	"net/http"
	"testing"

	"haste/internal/instio"
	"haste/internal/model"
	"haste/internal/workload"
)

// The session benchmarks quantify the tentpole claim: keeping a session
// open and PATCHing task churn into it beats re-sending the mutated
// instance to /v1/schedule for a cold recompile + solve. Both benchmarks
// apply the same churn — one task arrives, one departs, the task count
// stays at m — so the ratio isolates what the delta ops and the warm
// start save, not a workload difference. Two shapes:
//
//   - fig4: the paper's §7.1 default (n=50, m=200, C=1). One dense
//     coverage component, so the warm solve saves decode + canonical
//     hash + NewProblem but re-runs the whole greedy.
//   - clustered: FleetScale(200) — 5 isolated clusters at the same task
//     count. A mutation dirties one cluster; the other components return
//     their sub-problems' remembered last runs, so the warm solve also
//     skips ~4/5 of the greedy work.
func sessionBenchShapes() []struct {
	name string
	cfg  workload.Config
} {
	return []struct {
		name string
		cfg  workload.Config
	}{
		{"fig4", workload.Default()},
		{"clustered", workload.FleetScale(200)},
	}
}

// benchChurnTask is the arriving task of iteration i, exactly
// representable so mutated instances round-trip the wire bit-for-bit.
func benchChurnTask(in *model.Instance, i int) instio.FileTask {
	c := in.Chargers[i%len(in.Chargers)]
	return instio.FileTask{
		X: c.Pos.X + float64(i%7) - 3, Y: c.Pos.Y + float64(i%5) - 2,
		PhiDeg: 0, Release: i % 4, End: i%4 + 2*in.Params.Tau + 4,
		Energy: 3000, Weight: 1 + float64(i%3),
	}
}

// BenchmarkSessionWarmUpdate measures one PATCH round trip on an open
// session: add a task, remove the previous iteration's task, re-solve
// warm on the in-place patched compiled problem.
func BenchmarkSessionWarmUpdate(b *testing.B) {
	for _, shape := range sessionBenchShapes() {
		b.Run(shape.name, func(b *testing.B) {
			s := New(Config{})
			in := shape.cfg.Generate(rand.New(rand.NewSource(1)))
			resp := createSession(b, s, instanceJSON(b, in), `,"seed":9`)
			id := resp.SessionID

			prevRef := int64(1) // iteration i removes the task added by i-1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body := mustJSON(b, sessionPatchRequest{Mutations: []sessionMutation{
					{Op: "add", Task: taskPtr(benchChurnTask(in, i))},
					{Op: "complete", Ref: prevRef},
				}})
				rec := do(s, http.MethodPatch, "/v1/session/"+id, body)
				if rec.Code != http.StatusOK {
					b.Fatalf("iteration %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
				}
				var pr sessionResponse
				decodeResponse(b, rec.Body.Bytes(), &pr)
				prevRef = pr.Refs[0]
			}
			b.StopTimer()
			if got := s.Metrics().Sessions.Solves; got != int64(b.N)+1 {
				b.Fatalf("solves_total = %d, want %d", got, b.N+1)
			}
		})
	}
}

// BenchmarkSessionColdRecompile is the baseline the session replaces: the
// client applies the same churn to its own instance copy and re-sends the
// whole document to /v1/schedule. CacheSize 1 with per-iteration distinct
// instances forces every iteration through decode + hash + NewProblem +
// solve, exactly what a cacheless client-side mutation pays.
func BenchmarkSessionColdRecompile(b *testing.B) {
	for _, shape := range sessionBenchShapes() {
		b.Run(shape.name, func(b *testing.B) {
			in := shape.cfg.Generate(rand.New(rand.NewSource(1)))
			bodies := make([][]byte, b.N)
			mirror := &model.Instance{Chargers: in.Chargers,
				Tasks:  append([]model.Task(nil), in.Tasks...),
				Params: in.Params, Utility: in.Utility}
			for i := range bodies {
				// Same churn as the warm benchmark: one arrival, one departure.
				mirror.Tasks = append(mirror.Tasks, instio.TaskFromFile(benchChurnTask(in, i), len(mirror.Tasks)))
				mirror.Tasks[0] = mirror.Tasks[len(mirror.Tasks)-1]
				mirror.Tasks[0].ID = 0
				mirror.Tasks = mirror.Tasks[:len(mirror.Tasks)-1]
				bodies[i] = requestBody(b, instanceJSON(b, mirror), map[string]any{"seed": 9, "shard": true})
			}
			s := New(Config{CacheSize: 1})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := post(s, "/v1/schedule", bodies[i])
				if rec.Code != http.StatusOK {
					b.Fatalf("iteration %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
				}
			}
			b.StopTimer()
			if st := s.CacheStats(); st.Hits != 0 {
				b.Fatalf("cold benchmark hit the cache: %+v", st)
			}
		})
	}
}
