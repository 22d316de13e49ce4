// Package obs is the zero-dependency observability probe threaded through
// the scheduling pipeline: a span recorder (Trace) that core and serve
// attach phase timings and counters to, plus renderers that turn a
// recorded run into a JSON-ready tree, a text table, or an aggregated
// per-phase summary.
//
// The probe is built around one invariant: the disabled path costs
// nothing. A nil *Trace is the off switch — every method on a nil Trace
// and on the zero SpanRef is a no-op that performs no allocation, no
// lock, and no time read, so instrumented code calls the probe
// unconditionally (obs_test.go pins 0 allocs via testing.AllocsPerRun).
// Because spans bracket pipeline phases, not inner-loop iterations, the
// enabled path stays off the hot marginal scans entirely; the probe can
// only observe a run, never perturb its floating-point work, so traced
// schedules are bit-identical to untraced ones.
//
// Concurrency: a Trace is safe for concurrent span recording (the sharded
// scheduler's component workers append from multiple goroutines); the
// span log is guarded by a mutex that is only ever held for an append or
// a field write. Sibling order under one parent then reflects scheduling
// and is not deterministic — consumers that need determinism aggregate by
// phase name (Aggregate) instead of relying on order.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"
)

// Trace records one run's span log. The zero value is ready to use; nil
// means tracing is off.
type Trace struct {
	mu    sync.Mutex
	spans []span
}

// span is one recorded phase. Parent indexes into the span log; -1 marks
// a root, so a Trace holds a forest (serve records its request phases as
// sibling roots, core's solve is one of them).
type span struct {
	name   string
	parent int32
	start  time.Time
	dur    time.Duration
	attrs  []Attr
}

// Attr is one integer attribute of a span (sizes, counters, worker ids;
// booleans are recorded as 0/1).
type Attr struct {
	Key string
	Val int64
}

// New returns an empty trace ready to record.
func New() *Trace { return &Trace{} }

// SpanRef is a value handle to a recorded span — or to nothing, when
// tracing is off. The zero SpanRef is inert: Start on it returns another
// zero SpanRef and End/Int/Bool do nothing, which is what lets
// instrumented code thread refs through call chains without a single
// nil check of its own.
type SpanRef struct {
	t   *Trace
	idx int32
}

// Root returns the parentless recording context of the trace: spans
// started from it are roots. On a nil trace it returns the zero (inert)
// SpanRef, so t.Root() is the standard way to turn an optional *Trace
// into a SpanRef parameter.
func (t *Trace) Root() SpanRef {
	if t == nil {
		return SpanRef{}
	}
	return SpanRef{t: t, idx: -1}
}

// Start records a new root span.
func (t *Trace) Start(name string) SpanRef { return t.Root().Start(name) }

// Span retro-records a completed root span from an externally measured
// start and duration — for phases (like request decoding) that finish
// before the caller knows whether the request asked for a trace.
func (t *Trace) Span(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, parent: -1, start: start, dur: d})
	t.mu.Unlock()
}

// Start records a child span of s and returns its ref. The child's clock
// starts now; call End when the phase completes.
func (s SpanRef) Start(name string) SpanRef {
	if s.t == nil {
		return SpanRef{}
	}
	now := time.Now()
	s.t.mu.Lock()
	idx := int32(len(s.t.spans))
	s.t.spans = append(s.t.spans, span{name: name, parent: s.idx, start: now})
	s.t.mu.Unlock()
	return SpanRef{t: s.t, idx: idx}
}

// End stamps the span's duration. Ending a span twice overwrites the
// duration; ending the zero SpanRef or a Root context does nothing.
func (s SpanRef) End() {
	if s.t == nil || s.idx < 0 {
		return
	}
	now := time.Now()
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.dur = now.Sub(sp.start)
	s.t.mu.Unlock()
}

// Int attaches an integer attribute and returns s for chaining.
func (s SpanRef) Int(key string, v int64) SpanRef {
	if s.t == nil || s.idx < 0 {
		return s
	}
	s.t.mu.Lock()
	sp := &s.t.spans[s.idx]
	sp.attrs = append(sp.attrs, Attr{Key: key, Val: v})
	s.t.mu.Unlock()
	return s
}

// Bool attaches a boolean attribute, recorded as 0/1.
func (s SpanRef) Bool(key string, v bool) SpanRef {
	var n int64
	if v {
		n = 1
	}
	return s.Int(key, n)
}

// NewID returns a fresh 16-hex-digit identifier for correlating a trace
// with logs and response headers.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; a zero id
		// is still a valid (if non-unique) correlation key.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}
