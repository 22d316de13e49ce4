package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"

	"haste/internal/obs"
)

// Set-up is repeated so setup_s is a median, not one noisy sample: as
// many set-ups as take about the budget together, at least minSetups and
// at most maxSetups.
const (
	minSetups = 5
	maxSetups = 40
)

// setUpTimer times a workload's set-up. The run sets up once and keeps
// the result; the other set-ups are spread over the measured time, each
// copy released at once. The 2-vCPU host this benchmark was built on
// switches between two speeds every few seconds, and set-ups bunched
// before the run would all land in one of them.
type setUpTimer[T any] struct {
	build   func() (T, error)
	release func(T)
	want    int           // set-ups in the run
	every   time.Duration // measured time between two set-ups
	next    time.Time
	times   []float64
	err     error
}

// newSetUp builds the workload once and plans the remaining set-ups over
// the given measured seconds.
func newSetUp[T any](build func() (T, error), release func(T), budget time.Duration, seconds float64) (T, *setUpTimer[T], error) {
	s := &setUpTimer[T]{build: build, release: release}
	v, d, err := s.time()
	if err != nil {
		return v, nil, err
	}
	s.times = append(s.times, d)
	s.want = min(max(int(budget.Seconds()/d), minSetups), maxSetups)
	s.every = time.Duration(seconds / float64(s.want) * float64(time.Second))
	s.next = time.Now().Add(s.every)
	return v, s, nil
}

// time runs one set-up from a collected heap, so whether a garbage
// collection lands inside it does not depend on what ran before.
func (s *setUpTimer[T]) time() (T, float64, error) {
	runtime.GC()
	t0 := time.Now()
	v, err := s.build()
	d := time.Since(t0).Seconds()
	if err != nil {
		err = fmt.Errorf("set-up: %w", err)
	}
	return v, d, err
}

// again times one more set-up and throws it away. It returns the wall
// time spent, which the caller leaves out of its measured time.
func (s *setUpTimer[T]) again() time.Duration {
	t0 := time.Now()
	v, d, err := s.time()
	if err != nil {
		s.err = err
		return time.Since(t0)
	}
	s.release(v)
	runtime.GC() // the copy's garbage is not the next op's
	s.times = append(s.times, d)
	return time.Since(t0)
}

// pause times one more set-up when the next is due; the measured loops
// call it between ops.
func (s *setUpTimer[T]) pause() time.Duration {
	if s.err != nil || len(s.times) >= s.want || time.Now().Before(s.next) {
		return 0
	}
	spent := s.again()
	s.next = time.Now().Add(s.every)
	return spent
}

// finish times the set-ups the run has not reached yet and returns the
// median set-up time in seconds.
func (s *setUpTimer[T]) finish() (float64, error) {
	for s.err == nil && len(s.times) < s.want {
		s.again()
	}
	return median(s.times), s.err
}

// rngFor derives the generator of item j of a stream from the run seed,
// so every input of every workload is a pure function of --seed.
func rngFor(seed int64, stream, j int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)*100_003 + int64(j)))
}

// closedOp is one workload of the closed-loop shape: op is the timed
// call into the program, check verifies op i's output outside the timer.
type closedOp interface {
	op(i int, tr *obs.Trace) error
	check(i int) error
}

// loopStats is what one closed-loop phase measured, per op.
type loopStats struct {
	lat    []float64 // latency, seconds
	bytes  []float64 // heap bytes allocated inside the op
	objs   []float64 // heap objects allocated inside the op
	peak   []float64 // heap high-water mark during the op, bytes
	failed int
	gc     gcDelta
	phases *phaseAcc // span sums of traced ops (nil untraced)
}

func (s loopStats) ops() int { return len(s.lat) }

func (s loopStats) busy() float64 {
	var t float64
	for _, l := range s.lat {
		t += l
	}
	return t
}

// opsPerSec is ops per second of op time. A mean over the whole run moves
// smoothly with the share of it the host spent slow; a quantile of
// per-window rates jumps from one speed to the other as that share
// crosses the quantile.
func (s loopStats) opsPerSec() float64 { return float64(s.ops()) / s.busy() }

// closedLoop runs ops back to back on one client for the given wall time
// and at least minOps ops (so every instance of a pool runs once).
// Allocation and the heap high-water mark are read around each op only,
// so the untimed checks between ops count neither as time nor as memory.
// pause, when not nil, runs between ops; the time it returns extends the
// loop.
func closedLoop(w closedOp, first int, seconds float64, minOps int, traced bool, pause func() time.Duration) loopStats {
	st := loopStats{}
	if traced {
		st.phases = newPhaseAcc()
	}
	hp := startHeapPeak(0)
	defer hp.stop()
	g0 := readGC()
	var before, after runtime.MemStats
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n < minOps || time.Now().Before(deadline); n++ {
		if pause != nil {
			deadline = deadline.Add(pause())
		}
		i := first + n
		var tr *obs.Trace
		if traced {
			tr = obs.New()
		}
		runtime.ReadMemStats(&before)
		hp.take()
		t0 := time.Now()
		err := w.op(i, tr)
		d := time.Since(t0)
		st.peak = append(st.peak, float64(hp.take()))
		runtime.ReadMemStats(&after)
		st.lat = append(st.lat, d.Seconds())
		st.bytes = append(st.bytes, float64(after.TotalAlloc-before.TotalAlloc))
		st.objs = append(st.objs, float64(after.Mallocs-before.Mallocs))
		if err == nil {
			err = w.check(i)
		}
		if err != nil {
			st.failed++
			logFailure(i, err)
		}
		if traced {
			st.phases.add(tr.Tree(), d.Seconds()*1e3)
		}
	}
	st.gc = readGC().sub(g0)
	return st
}

// failuresLogged caps the failure lines written to stderr.
var failuresLogged atomic.Int64

func logFailure(i int, err error) {
	if failuresLogged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "haste-bench: op %d failed: %v\n", i, err)
	}
}

// endToEndFrom fills the end-to-end metrics of a closed-loop phase.
func endToEndFrom(rep *report, st loopStats, setupS float64) {
	lat := sortedMS(st.lat)
	rep.metrics["setup_s"] = setupS
	rep.metrics["ops_per_s"] = st.opsPerSec()
	rep.metrics["latency_p50_ms"] = quantile(lat, 0.50)
	rep.extra["latency_p90_ms"] = quantile(lat, 0.90)
	rep.metrics["peak_heap_mib"] = mib(median(st.peak))
	rep.metrics["alloc_mib_per_op"] = mib(median(st.bytes))
	rep.metrics["allocs_per_op"] = median(st.objs)
	rep.attempted += int64(st.ops())
	rep.failed += int64(st.failed)
}

// tracedRun splits a --trace 1 run into an untraced and a traced half of
// the same closed loop: the untraced half gives the runtime metrics and
// the baseline for the tracing overhead, the traced half the layer
// shares. Together the halves run at least minOps ops.
func tracedRun(rep *report, w closedOp, seconds float64, minOps int) (plain, traced loopStats) {
	plain = closedLoop(w, 0, seconds/2, 1, false, nil)
	traced = closedLoop(w, plain.ops(), seconds/2, minOps-plain.ops(), true, nil)
	rep.attempted += int64(plain.ops() + traced.ops())
	rep.failed += int64(plain.failed + traced.failed)
	rep.metrics["bench.traced_op_ms"] = traced.busy() * 1e3 / float64(traced.ops())
	rep.metrics["bench.trace_overhead_ratio"] = traced.opsPerSec() / plain.opsPerSec()
	rep.metrics["go.gc_cpu_fraction"] = plain.gc.cpuFraction()
	rep.metrics["go.gc_cycles_per_op"] = float64(plain.gc.cycles) / float64(plain.ops())
	traced.phases.shares(rep)
	return plain, traced
}

// heapPeak samples the heap in use (live and not yet swept objects) from
// runtime/metrics every heapSampleEvery and tracks its high-water mark:
// since the last take, and, when started with a window, per window of
// that length.
type heapPeak struct {
	hw      atomic.Uint64
	done    chan struct{}
	windows chan []float64
}

const heapSampleEvery = 5 * time.Millisecond

func startHeapPeak(window time.Duration) *heapPeak {
	h := &heapPeak{done: make(chan struct{}), windows: make(chan []float64, 1)}
	go func() {
		var (
			s       = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			peaks   []float64
			winPeak uint64
			winEnd  = time.Now().Add(window)
		)
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				metrics.Read(s)
				v := s[0].Value.Uint64()
				h.raise(v)
				winPeak = max(winPeak, v)
				if window > 0 && time.Now().After(winEnd) {
					peaks = append(peaks, float64(winPeak))
					winPeak, winEnd = 0, winEnd.Add(window)
				}
			case <-h.done:
				if len(peaks) == 0 && winPeak > 0 {
					peaks = append(peaks, float64(winPeak)) // a run shorter than one window
				}
				h.windows <- peaks
				return
			}
		}
	}()
	return h
}

func (h *heapPeak) raise(v uint64) {
	for {
		old := h.hw.Load()
		if v <= old || h.hw.CompareAndSwap(old, v) {
			return
		}
	}
}

// take returns the high-water mark since the previous take, including
// the heap in use right now, and starts a new one.
func (h *heapPeak) take() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return max(h.hw.Swap(0), s[0].Value.Uint64())
}

// stop ends sampling and returns the completed windows' peaks; the
// sampler has exited when it returns.
func (h *heapPeak) stop() []float64 {
	close(h.done)
	return <-h.windows
}

// gcDelta is the garbage collector's work over a phase.
type gcDelta struct {
	cycles        uint64
	gcCPU, allCPU float64 // seconds, from /cpu/classes
}

var gcSampleNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGC() gcDelta {
	s := make([]metrics.Sample, len(gcSampleNames))
	for i, n := range gcSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return gcDelta{cycles: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), allCPU: s[2].Value.Float64()}
}

func (g gcDelta) sub(o gcDelta) gcDelta {
	return gcDelta{cycles: g.cycles - o.cycles, gcCPU: g.gcCPU - o.gcCPU, allCPU: g.allCPU - o.allCPU}
}

func (g gcDelta) cpuFraction() float64 {
	if g.allCPU <= 0 {
		return 0
	}
	return g.gcCPU / g.allCPU
}

// phaseAcc sums traced span durations by slash-joined path and the op
// wall time they happened in.
type phaseAcc struct {
	ms   map[string]float64
	opMS float64
}

func newPhaseAcc() *phaseAcc { return &phaseAcc{ms: make(map[string]float64)} }

func (a *phaseAcc) add(nodes []*obs.Node, opMS float64) {
	a.opMS += opMS
	a.walk("", nodes)
}

func (a *phaseAcc) walk(prefix string, nodes []*obs.Node) {
	for _, n := range nodes {
		name := n.Name
		if name == "resolve_problem" {
			if n.Attrs["cache_hit"] == 1 {
				name += "[hit]"
			} else {
				name += "[miss]"
			}
		}
		path := name
		if prefix != "" {
			path = prefix + "/" + name
		}
		a.ms[path] += n.DurationMS
		a.walk(path, n.Children)
	}
}

// shares writes every share metric: a path's summed time over the summed
// op time (0 for a path the workload never records).
func (a *phaseAcc) shares(rep *report) {
	for _, sp := range sharePaths {
		rep.metrics[sp.metric] = a.ms[sp.path] / a.opMS
	}
}

// digest folds outputs into a sha256 in a fixed order.
type digest struct {
	h   hash.Hash
	buf [8]byte
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) int(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *digest) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digest) cells(rows [][]int) {
	d.int(int64(len(rows)))
	for _, row := range rows {
		d.int(int64(len(row)))
		for _, c := range row {
			d.int(int64(c))
		}
	}
}

func (d *digest) bytes(b []byte) { d.h.Write(b) }

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// poolDigest folds per-instance output digests in pool order; it is
// empty when some instance never ran.
func poolDigest(per []string) string {
	d := newDigest()
	for _, s := range per {
		if s == "" {
			return ""
		}
		d.bytes([]byte(s))
	}
	return d.sum()
}

// firstOutput remembers each pool instance's first output digest and
// fails any later op whose output differs from it.
type firstOutput []string

func (f firstOutput) match(j int, got string) error {
	if f[j] == "" {
		f[j] = got
		return nil
	}
	if f[j] != got {
		return fmt.Errorf("instance %d: output digest %s differs from its first run %s", j, got[:12], f[j][:12])
	}
	return nil
}

func sortedMS(secs []float64) []float64 {
	ms := make([]float64, len(secs))
	for i, s := range secs {
		ms[i] = s * 1e3
	}
	sort.Float64s(ms)
	return ms
}

// quantile linearly interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mib(b float64) float64 { return b / (1 << 20) }
