package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"haste/internal/core"
	"haste/internal/model"
	"haste/internal/workload"
)

// The service-boundary extension of the repo's bit-identity discipline
// (internal/difftest, DESIGN.md §3): N goroutines hammering the service
// with a mix of byte-identical, respelled and distinct instances must get
// back exactly the schedules a direct core.TabularGreedy call computes,
// and the cache counters must reconcile exactly with the request counts.
// CI runs this under -race, so the cache's singleflight and LRU locking
// are exercised as well as the shared-Problem concurrent scheduling path.

type hammerVariant struct {
	name string
	body []byte
	want core.Result // direct core reference for this instance + options
}

// buildVariants prepares the request mix: distinct instances, each in an
// indented and a compacted spelling (same canonical hash), with per-variant
// option sets mirrored into the direct reference call.
func buildVariants(t *testing.T, distinct int) ([]hammerVariant, []*model.Instance) {
	t.Helper()
	var variants []hammerVariant
	var instances []*model.Instance
	for d := 0; d < distinct; d++ {
		cfg := workload.SmallScale()
		cfg.NumChargers = 4 + d%3
		cfg.NumTasks = 8 + 2*(d%4)
		in := cfg.Generate(rand.New(rand.NewSource(int64(100 + d))))
		instances = append(instances, in)
		raw := instanceJSON(t, in)
		var compact bytes.Buffer
		if err := json.Compact(&compact, raw); err != nil {
			t.Fatal(err)
		}

		p, err := core.NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		colors := 1 + d%3
		seed := int64(40 + d)
		want := core.TabularGreedy(p, core.Options{
			Colors: colors, Samples: 4 * colors, PreferStay: true, Workers: 1,
			Rng: rand.New(rand.NewSource(seed)),
		})
		opts := map[string]any{"colors": colors, "samples": 4 * colors, "seed": seed}
		variants = append(variants,
			hammerVariant{name: "indented", body: requestBody(t, raw, opts), want: want},
			hammerVariant{name: "compact", body: requestBody(t, compact.Bytes(), opts), want: want},
		)
	}
	return variants, instances
}

func TestConcurrentRequestsBitIdentical(t *testing.T) {
	const (
		distinct   = 4
		goroutines = 8
		perWorker  = 12
	)
	s := New(Config{CacheSize: 2 * distinct, MaxConcurrent: 4, QueueDepth: goroutines * perWorker})
	ts := httptest.NewServer(s)
	defer ts.Close()

	variants, _ := buildVariants(t, distinct)

	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perWorker)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for r := 0; r < perWorker; r++ {
				v := variants[rng.Intn(len(variants))]
				res, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(v.body))
				if err != nil {
					errs <- err
					continue
				}
				body, err := io.ReadAll(res.Body)
				res.Body.Close()
				if err != nil {
					errs <- err
					continue
				}
				if res.StatusCode != http.StatusOK {
					errs <- errStatus(res.StatusCode, body)
					continue
				}
				var resp scheduleResponse
				if err := json.Unmarshal(body, &resp); err != nil {
					errs <- err
					continue
				}
				if err := schedulesEqual(resp.Schedule, v.want.Schedule.Policy); err != nil {
					errs <- err
					continue
				}
				if resp.RUtility != v.want.RUtility {
					errs <- errUtility(resp.RUtility, v.want.RUtility)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("hammer: %v", err)
	}

	// Reconciliation: every schedule request resolved exactly one cache
	// outcome, and thanks to singleflight the misses are exactly the
	// distinct canonical instances (the cache is big enough to never
	// evict here).
	st := s.CacheStats()
	total := int64(goroutines * perWorker)
	if st.Hits+st.Misses+st.CompileErrors != total {
		t.Fatalf("cache outcomes %d hits + %d misses + %d errors != %d requests",
			st.Hits, st.Misses, st.CompileErrors, total)
	}
	if st.CompileErrors != 0 {
		t.Fatalf("unexpected compile errors: %+v", st)
	}
	if st.Misses != distinct {
		t.Fatalf("misses = %d, want exactly %d (one compile per distinct instance)", st.Misses, distinct)
	}
	if st.Evictions != 0 {
		t.Fatalf("unexpected evictions: %+v", st)
	}
	m := s.Metrics()
	if m.Scheduled != total {
		t.Fatalf("scheduled_total = %d, want %d", m.Scheduled, total)
	}
	if m.ByStatus["200"] != total {
		t.Fatalf("status 200 count = %d, want %d", m.ByStatus["200"], total)
	}
	if m.InFlight != 0 || m.Queued != 0 {
		t.Fatalf("gauges not back to zero: %+v", m)
	}

	// No pooled state may stay checked out across the whole hammer.
	for _, p := range cachedProblems(s) {
		if n := p.StatesInUse(); n != 0 {
			t.Fatalf("cached problem leaked %d pooled states", n)
		}
	}
}

// TestThunderingHerdSingleCompile: many goroutines requesting the same
// never-seen instance at once must trigger exactly one NewProblem.
func TestThunderingHerdSingleCompile(t *testing.T) {
	const goroutines = 16
	s := New(Config{MaxConcurrent: goroutines, QueueDepth: goroutines})
	ts := httptest.NewServer(s)
	defer ts.Close()

	body := requestBody(t, instanceJSON(t, testInstance(t, 55)), nil)
	start := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			res, err := http.Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer res.Body.Close()
			raw, _ := io.ReadAll(res.Body)
			if res.StatusCode != http.StatusOK {
				errs <- errStatus(res.StatusCode, raw)
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("herd: %v", err)
	}
	st := s.CacheStats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (singleflight must dedupe the herd)", st.Misses)
	}
	if st.Hits != goroutines-1 {
		t.Fatalf("hits = %d, want %d", st.Hits, goroutines-1)
	}
}

type statusError struct {
	code int
	body string
}

func (e statusError) Error() string { return "unexpected status " + statusKey(e.code) + ": " + e.body }

func errStatus(code int, body []byte) error { return statusError{code, string(body)} }

type utilityError struct{ got, want float64 }

func (e utilityError) Error() string {
	b, _ := json.Marshal(map[string]float64{"got": e.got, "want": e.want})
	return "RUtility mismatch: " + string(b)
}

func errUtility(got, want float64) error { return utilityError{got, want} }
