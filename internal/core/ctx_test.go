package core

import (
	"context"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"haste/internal/workload"
)

func ctxProblem(t testing.TB, seed int64) *Problem {
	t.Helper()
	cfg := workload.Default()
	cfg.NumChargers = 20
	cfg.NumTasks = 60
	in := cfg.Generate(rand.New(rand.NewSource(seed)))
	p, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTabularGreedyCtxUncancelled: with a live context the ctx variant is
// bit-identical to TabularGreedy — the cancellation probe must not perturb
// the schedule.
func TestTabularGreedyCtxUncancelled(t *testing.T) {
	p := ctxProblem(t, 11)
	for _, colors := range []int{1, 3} {
		want := TabularGreedy(p, Options{Colors: colors, PreferStay: true, Workers: 1,
			Rng: rand.New(rand.NewSource(7))})
		got, err := TabularGreedyCtx(context.Background(), p, Options{Colors: colors,
			PreferStay: true, Workers: 1, Rng: rand.New(rand.NewSource(7))})
		if err != nil {
			t.Fatalf("C=%d: unexpected error %v", colors, err)
		}
		if got.RUtility != want.RUtility {
			t.Fatalf("C=%d: RUtility %v != %v", colors, got.RUtility, want.RUtility)
		}
		for i := range want.Schedule.Policy {
			for k := range want.Schedule.Policy[i] {
				if got.Schedule.Policy[i][k] != want.Schedule.Policy[i][k] {
					t.Fatalf("C=%d: schedule differs at (%d,%d)", colors, i, k)
				}
			}
		}
	}
}

// TestTabularGreedyCtxPreCancelled: an already-cancelled context returns
// promptly with ctx.Err() and leaves the state pool balanced.
func TestTabularGreedyCtxPreCancelled(t *testing.T) {
	p := ctxProblem(t, 12)
	base := p.StatesInUse()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := TabularGreedyCtx(ctx, p, Options{Colors: 4, PreferStay: true, Workers: 1})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Schedule.Policy != nil {
		t.Fatalf("cancelled run returned a schedule: %+v", res)
	}
	if got := p.StatesInUse(); got != base {
		t.Fatalf("state pool leaked: balance %d, want %d", got, base)
	}
}

// TestTabularGreedyCtxMidRunCancel: cancelling mid-run returns promptly
// (bounded by one greedy stage), leaks no pooled EnergyState, and leaves
// the Problem reusable — the next uncancelled run is bit-identical to a
// run on a fresh Problem.
func TestTabularGreedyCtxMidRunCancel(t *testing.T) {
	p := ctxProblem(t, 13)
	base := p.StatesInUse()

	// A heavy configuration so the run takes long enough to catch the
	// cancel mid-flight (C=8 with the default 64 samples).
	opts := func() Options {
		return Options{Colors: 8, PreferStay: true, Workers: 1, Rng: rand.New(rand.NewSource(9))}
	}
	full := TabularGreedy(p, opts())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := TabularGreedyCtx(ctx, p, opts())
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		// Fast machines may legitimately finish before the cancel lands.
		if err != nil && err != context.Canceled {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return within 10s")
	}
	if got := p.StatesInUse(); got != base {
		t.Fatalf("state pool leaked after cancel: balance %d, want %d", got, base)
	}

	// The cached Problem must be untouched: rerun bit-identically.
	again, err := TabularGreedyCtx(context.Background(), p, opts())
	if err != nil {
		t.Fatal(err)
	}
	if again.RUtility != full.RUtility {
		t.Fatalf("post-cancel rerun diverged: %v != %v", again.RUtility, full.RUtility)
	}
	for i := range full.Schedule.Policy {
		for k := range full.Schedule.Policy[i] {
			if again.Schedule.Policy[i][k] != full.Schedule.Policy[i][k] {
				t.Fatalf("post-cancel rerun schedule differs at (%d,%d)", i, k)
			}
		}
	}
}

// TestTabularGreedyCtxDeadline: a deadline that cannot possibly be met
// surfaces context.DeadlineExceeded, still with a balanced pool.
func TestTabularGreedyCtxDeadline(t *testing.T) {
	p := ctxProblem(t, 14)
	base := p.StatesInUse()
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // deadline long past before the run starts
	_, err := TabularGreedyCtx(ctx, p, Options{Colors: 4, PreferStay: true, Workers: 1})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if got := p.StatesInUse(); got != base {
		t.Fatalf("state pool leaked: balance %d, want %d", got, base)
	}
}

// A dropped Problem whose states went back to its pool is garbage at the
// next collection. The runtime keeps every pool used since the last
// collection reachable until the next one, so neither the pool nor the
// states in it may point into the Problem.
func TestReleasedProblemCollectedAtNextGC(t *testing.T) {
	collected := make(chan struct{})
	func() {
		p := ctxProblem(t, 15)
		Evaluate(p, TabularGreedy(p, DefaultOptions(1)).Schedule)
		runtime.SetFinalizer(p, func(*Problem) { close(collected) })
	}()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(5 * time.Second):
		t.Fatal("the Problem outlived the first collection after it was dropped")
	}
}

// TestStatesInUseBalance: the counter tracks checkouts exactly, tolerates
// double releases and plain NewEnergyState states, and Evaluate-style
// acquire/release pairs net to zero.
func TestStatesInUseBalance(t *testing.T) {
	p := ctxProblem(t, 15)
	if got := p.StatesInUse(); got != 0 {
		t.Fatalf("fresh problem balance %d", got)
	}
	a, b := p.AcquireState(), p.AcquireState()
	if got := p.StatesInUse(); got != 2 {
		t.Fatalf("after two acquires: %d", got)
	}
	p.ReleaseState(a)
	p.ReleaseState(a) // double release must not double-count
	if got := p.StatesInUse(); got != 1 {
		t.Fatalf("after double release of one state: %d", got)
	}
	p.ReleaseState(NewEnergyState(p)) // unpooled state: balance unchanged
	if got := p.StatesInUse(); got != 1 {
		t.Fatalf("after releasing an unpooled state: %d", got)
	}
	p.ReleaseState(b)
	if got := p.StatesInUse(); got != 0 {
		t.Fatalf("final balance %d", got)
	}
	Evaluate(p, TabularGreedy(p, DefaultOptions(1)).Schedule)
	if got := p.StatesInUse(); got != 0 {
		t.Fatalf("balance after Evaluate/TabularGreedy: %d", got)
	}

	// A double release must not put the state in the pool twice: two
	// later checkouts would share it.
	c := p.AcquireState()
	p.ReleaseState(c)
	p.ReleaseState(c)
	x, y := p.AcquireState(), p.AcquireState()
	if x == y {
		t.Fatal("a doubly released state was handed out twice")
	}
	p.ReleaseState(x)
	p.ReleaseState(y)
	if got := p.StatesInUse(); got != 0 {
		t.Fatalf("balance after the double-release checkouts: %d", got)
	}
}
