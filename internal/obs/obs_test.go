package obs

import (
	"encoding/json"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// The probe's core contract: with tracing off (nil *Trace, zero SpanRef)
// the full instrumentation call pattern — root span, nested children,
// attributes, retro spans — allocates nothing. This is what lets core
// call the probe unconditionally on every solve.
func TestDisabledProbeAllocFree(t *testing.T) {
	var tr *Trace
	allocs := testing.AllocsPerRun(1000, func() {
		root := tr.Start("solve")
		sp := root.Start("greedy").Int("chargers", 5).Bool("warm", false)
		sp.End()
		child := sp.Start("evaluate")
		child.End()
		tr.Span("decode", time.Time{}, 0)
		root.Int("shards", 3)
		root.End()
		_ = tr.Root()
		_ = tr.Tree()
	})
	if allocs != 0 {
		t.Fatalf("disabled probe allocated %v times per run, want 0", allocs)
	}
}

func TestTreeStructure(t *testing.T) {
	tr := New()
	root := tr.Start("solve")
	g := root.Start("greedy").Int("chargers", 4).Int("slots", 7)
	time.Sleep(time.Millisecond)
	g.End()
	e := root.Start("evaluate")
	e.End()
	root.Int("shards", 0).Bool("warm", true)
	root.End()
	tr.Span("decode", time.Now().Add(-time.Millisecond), time.Millisecond)

	nodes := tr.Tree()
	if len(nodes) != 2 {
		t.Fatalf("got %d roots, want 2", len(nodes))
	}
	solve := nodes[0]
	if solve.Name != "solve" || len(solve.Children) != 2 {
		t.Fatalf("solve root malformed: %+v", solve)
	}
	if solve.Attrs["shards"] != 0 || solve.Attrs["warm"] != 1 {
		t.Errorf("root attrs = %v", solve.Attrs)
	}
	g0 := solve.Children[0]
	if g0.Name != "greedy" || g0.Attrs["chargers"] != 4 || g0.Attrs["slots"] != 7 {
		t.Errorf("greedy child = %+v", g0)
	}
	if g0.DurationMS <= 0 {
		t.Errorf("greedy duration %v, want > 0", g0.DurationMS)
	}
	if solve.DurationMS < g0.DurationMS {
		t.Errorf("parent %vms shorter than child %vms", solve.DurationMS, g0.DurationMS)
	}
	if nodes[1].Name != "decode" || nodes[1].DurationMS != 1 {
		t.Errorf("retro span = %+v", nodes[1])
	}

	// The tree must be JSON-encodable with the documented field names.
	b, err := json.Marshal(nodes)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	for _, want := range []string{`"name":"solve"`, `"duration_ms"`, `"attrs"`, `"children"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("JSON missing %s: %s", want, b)
		}
	}
}

// Concurrent recorders (the sharded scheduler's component workers) must
// be race-free and lose no spans. Run with -race in CI's observability
// job.
func TestConcurrentRecording(t *testing.T) {
	tr := New()
	root := tr.Start("solve")
	const workers, per = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := root.Start("component").Int("worker", int64(w))
				sp.Start("greedy").End()
				sp.End()
			}
		}(w)
	}
	// Snapshot while recording is in flight: must not race or corrupt.
	for i := 0; i < 10; i++ {
		_ = tr.Tree()
	}
	wg.Wait()
	root.End()
	nodes := tr.Tree()
	if len(nodes) != 1 {
		t.Fatalf("got %d roots, want 1", len(nodes))
	}
	if got := len(nodes[0].Children); got != workers*per {
		t.Fatalf("got %d component spans, want %d", got, workers*per)
	}
	if n := spanCount(tr); n != 1+2*workers*per {
		t.Fatalf("span log holds %d spans, want %d", n, 1+2*workers*per)
	}
}

// spanCount returns the number of spans recorded on tr.
func spanCount(tr *Trace) int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.spans)
}

func TestAggregateAndRenderers(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		root := tr.Start("solve")
		root.Start("greedy").End()
		root.Start("evaluate").End()
		root.End()
	}
	stats := Aggregate(tr.Tree())
	want := []string{"solve", "solve/greedy", "solve/evaluate"}
	if len(stats) != len(want) {
		t.Fatalf("got %d phases %v, want %d", len(stats), stats, len(want))
	}
	for i, path := range want {
		if stats[i].Path != path {
			t.Errorf("phase[%d] = %q, want %q", i, stats[i].Path, path)
		}
		if stats[i].Count != 3 {
			t.Errorf("phase %q count = %d, want 3", path, stats[i].Count)
		}
	}

	var table, summary strings.Builder
	WriteTable(&table, tr.Tree())
	if got := strings.Count(table.String(), "\n"); got != 9 {
		t.Errorf("table has %d lines, want 9:\n%s", got, table.String())
	}
	if !strings.Contains(table.String(), "  greedy") {
		t.Errorf("table lacks indented child:\n%s", table.String())
	}
	WriteSummary(&summary, tr.Tree())
	if !strings.Contains(summary.String(), "solve/greedy") {
		t.Errorf("summary lacks aggregated path:\n%s", summary.String())
	}

	if got := RootDurationMS(tr.Tree()); got < 0 {
		t.Errorf("RootDurationMS = %v", got)
	}
}

func TestNewID(t *testing.T) {
	re := regexp.MustCompile(`^[0-9a-f]{16}$`)
	a, b := NewID(), NewID()
	if !re.MatchString(a) || !re.MatchString(b) {
		t.Fatalf("ids %q, %q not 16 hex digits", a, b)
	}
	if a == b {
		t.Fatalf("consecutive ids collide: %q", a)
	}
}
