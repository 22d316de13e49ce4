package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"haste/internal/core"
	"haste/internal/instio"
	"haste/internal/model"
	"haste/internal/obs"
	"haste/internal/serve"
)

// serve-mixed drives one in-process haste service over loopback HTTP
// with a pre-drawn mix of requests:
//
//   - warm (50%): POST /v1/schedule of one of a few byte-identical
//     instances, so the cache hits and only the greedy step runs;
//   - cold (20%): POST /v1/schedule of a never-seen instance, paying
//     decode, hash and compile;
//   - patch (30%): PATCH /v1/session/{id} adding one task and completing
//     another, paying the delta ops and a warm-started solve.
//
// Phase 1 is an open loop (Poisson arrivals at serveRate) over two
// connections: latency counts from when a request was due, so a stall
// shows in later requests too. Connection w owns session w and sends the
// request indices of parity w in order, so a session never has two
// PATCHes in flight and its mutation sequence is the same on every run.
// Phase 2 is a closed loop over one connection measuring sequential
// capacity.
const (
	classWarm = iota
	classCold
	classPatch
)

var classNames = [...]string{"warm", "cold", "patch"}

const (
	serveClients  = 2
	servePlanSize = 40_000 // request indices drawn per run; a phase stops early if it runs out
)

type serveBench struct {
	rc     runConfig
	hs     *http.Server
	served chan error
	client *http.Client
	base   string
	handle *serve.Server

	warm     [][2][]byte // per warm instance: untraced and traced body
	warmWant []string    // per warm instance: digest of the library solve
	warmIns  []*model.Instance

	sessID       [serveClients]string
	sessRaw      [serveClients][]byte // the session instance as sent
	sessM        [serveClients]int    // its initial task count
	sessChargers [serveClients][]model.Charger

	class   []uint8
	warmIdx []uint8
	gap     []float64 // seconds before request i is due, after request i-1

	recs      []serveRec
	patchRecs [serveClients][]int // request indices of session w's patches, in order
}

// serveRec is what the client saw of one request.
type serveRec struct {
	done     bool
	ok       bool    // 2xx and every check the client can make at once
	non2xx   bool    // a non-2xx status
	fromDue  float64 // open loop: seconds from due to reply
	lag      float64 // open loop: seconds from due to send
	service  float64 // seconds from send to reply
	digest   string
	shards   int
	reused   int
	patchOrd int
	trace    []*obs.Node
}

// serveReply is the part of a schedule or session response the client
// checks.
type serveReply struct {
	Schedule   [][]int     `json:"schedule"`
	RUtility   float64     `json:"r_utility"`
	Cache      string      `json:"cache"`
	Shards     int         `json:"shards"`
	WarmReused int         `json:"warm_reused"`
	Refs       []int64     `json:"refs"`
	SessionID  string      `json:"session_id"`
	Trace      []*obs.Node `json:"trace"`
}

func replyDigest(r serveReply) string {
	d := newDigest()
	d.cells(r.Schedule)
	d.float(r.RUtility)
	return d.sum()
}

func resultDigest(res core.Result) string {
	d := newDigest()
	d.cells(res.Schedule.Policy)
	d.float(res.RUtility)
	return d.sum()
}

// scheduleOptions are the core options the service runs a default
// /v1/schedule request with; sessionOptions add the forced sharding
// sessions use.
func scheduleOptions() core.Options { return core.Options{Colors: 1, PreferStay: true, Workers: 1} }

func sessionOptions() core.Options {
	o := scheduleOptions()
	o.Shard = core.ShardOn
	return o
}

func instanceJSON(in *model.Instance) ([]byte, error) {
	return json.Marshal(instio.FromInstance(in, ""))
}

func scheduleBody(raw []byte, traced bool) []byte {
	var b bytes.Buffer
	b.WriteString(`{"instance":`)
	b.Write(raw)
	if traced {
		b.WriteString(`,"trace":true`)
	}
	b.WriteString(`}`)
	return b.Bytes()
}

// solveWire solves an instance exactly as the service receives it: decoded
// from the wire bytes, compiled, scheduled with the service's options.
func solveWire(raw []byte, opt core.Options) (core.Result, error) {
	in, err := instio.Load(bytes.NewReader(raw))
	if err != nil {
		return core.Result{}, err
	}
	p, err := core.NewProblem(in)
	if err != nil {
		return core.Result{}, err
	}
	return core.TabularGreedy(p, opt), nil
}

// coldInstance is the never-seen instance of request i.
func (b *serveBench) coldInstance(i int) ([]byte, error) {
	return instanceJSON(b.rc.size.serveFig.Generate(rngFor(b.rc.seed, streamServeCold, i)))
}

// churnTask is the task session w's k-th patch adds: next to one of the
// session's chargers, inside the instance's horizon.
func (b *serveBench) churnTask(w, k int) instio.FileTask {
	c := b.sessChargers[w][k%len(b.sessChargers[w])]
	rel := k % 4
	return instio.FileTask{
		X: c.Pos.X + float64(k%5)/4 - 0.5, Y: c.Pos.Y + float64(k%3)/4 - 0.25,
		PhiDeg: float64(45 * (k % 8)), Release: rel, End: rel + 2*b.rc.size.session.Params.Tau + 4,
		Energy: 400, Weight: 1 / float64(b.sessM[w]),
	}
}

// patchRef is the ref session w's k-th patch completes: an initial task
// for the first patch, then the task the previous patch added (session
// refs are 1..m for the initial tasks and m+1+k for patch k's add).
func (b *serveBench) patchRef(w, k int) int64 {
	if k == 0 {
		return 1
	}
	return int64(b.sessM[w] + k)
}

func (b *serveBench) patchBody(w, k int, traced bool) []byte {
	body, _ := json.Marshal(map[string]any{ // only plain values: cannot fail
		"mutations": []map[string]any{
			{"op": "add", "task": b.churnTask(w, k)},
			{"op": "complete", "ref": b.patchRef(w, k)},
		},
		"trace": traced,
	})
	return body
}

func newServeBench(rc runConfig) (*serveBench, error) {
	b := &serveBench{rc: rc}
	sz := rc.size

	// Warm instances and their expected outputs.
	for j := 0; j < sz.serveWarm; j++ {
		in := sz.serveFig.Generate(rngFor(rc.seed, streamServeWarm, j))
		raw, err := instanceJSON(in)
		if err != nil {
			return nil, err
		}
		res, err := solveWire(raw, scheduleOptions())
		if err != nil {
			return nil, err
		}
		b.warm = append(b.warm, [2][]byte{scheduleBody(raw, false), scheduleBody(raw, true)})
		b.warmWant = append(b.warmWant, resultDigest(res))
		b.warmIns = append(b.warmIns, in)
	}

	// The request plan: class, warm instance and arrival gap per index.
	rng := rngFor(rc.seed, streamServePlan, 0)
	b.class = make([]uint8, servePlanSize)
	b.warmIdx = make([]uint8, servePlanSize)
	b.gap = make([]float64, servePlanSize)
	for i := range b.class {
		switch u := rng.Float64(); {
		case u < 0.5:
			b.class[i] = classWarm
			b.warmIdx[i] = uint8(rng.Intn(sz.serveWarm))
		case u < 0.7:
			b.class[i] = classCold
		default:
			b.class[i] = classPatch
		}
		b.gap[i] = rng.ExpFloat64() / sz.serveRate
	}
	b.recs = make([]serveRec, servePlanSize)

	if err := b.start(); err != nil {
		return nil, err
	}
	if err := b.prime(); err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

func (b *serveBench) start() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	b.handle = serve.New(serve.Config{})
	b.hs = &http.Server{Handler: b.handle}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: serveClients,
		MaxConnsPerHost:     serveClients,
		DisableCompression:  true,
	}}
	return nil
}

// stop shuts the server down and returns once it has stopped serving.
func (b *serveBench) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a timed-out drain still closes the listener
	<-b.served
	b.client.CloseIdleConnections()
}

// prime warms the cache with every warm instance, opens the sessions and
// sends one cold request, checking each reply against the library.
func (b *serveBench) prime() error {
	for j, body := range b.warm {
		r, err := b.expectOK(http.MethodPost, "/v1/schedule", body[0], http.StatusOK)
		if err != nil {
			return err
		}
		if replyDigest(r) != b.warmWant[j] {
			return fmt.Errorf("warm instance %d: service schedule differs from the library's", j)
		}
	}
	for w := 0; w < serveClients; w++ {
		in := b.rc.size.session.Generate(rngFor(b.rc.seed, streamServeSession, w))
		raw, err := instanceJSON(in)
		if err != nil {
			return err
		}
		b.sessRaw[w], b.sessM[w], b.sessChargers[w] = raw, len(in.Tasks), in.Chargers
		r, err := b.expectOK(http.MethodPost, "/v1/session", scheduleBody(raw, false), http.StatusCreated)
		if err != nil {
			return err
		}
		res, err := solveWire(raw, sessionOptions())
		if err != nil {
			return err
		}
		if replyDigest(r) != resultDigest(res) {
			return fmt.Errorf("session %d: initial schedule differs from the library's", w)
		}
		b.sessID[w] = r.SessionID
	}
	raw, err := instanceJSON(b.rc.size.serveFig.Generate(rngFor(warmUpSeed, streamServeWarmUp, 0)))
	if err != nil {
		return err
	}
	_, err = b.expectOK(http.MethodPost, "/v1/schedule", scheduleBody(raw, false), http.StatusOK)
	return err
}

func (b *serveBench) expectOK(method, path string, body []byte, status int) (serveReply, error) {
	var r serveReply
	code, data, err := b.do(method, path, body)
	if err != nil {
		return r, err
	}
	if code != status {
		return r, fmt.Errorf("%s %s: status %d: %s", method, path, code, data)
	}
	return r, json.Unmarshal(data, &r)
}

func (b *serveBench) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, b.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// send issues request i, records the reply and makes the checks that need
// no library run: status, cache hit or miss as the class implies, the
// warm schedule, the patch's new ref. A patch goes to session i mod 2;
// patches counts each session's patches sent so far, and only the one
// client sending a session's requests touches its count.
func (b *serveBench) send(i int, patches *[serveClients]int, traced bool, due time.Time, open bool) {
	var (
		method = http.MethodPost
		path   = "/v1/schedule"
		body   []byte
		rec    = &b.recs[i]
		w      = i % serveClients
	)
	switch b.class[i] {
	case classWarm:
		body = b.warm[b.warmIdx[i]][boolIndex(traced)]
	case classCold:
		raw, err := b.coldInstance(i)
		if err != nil {
			panic(err) // a generated instance always encodes
		}
		body = scheduleBody(raw, traced)
	case classPatch:
		method, path = http.MethodPatch, "/v1/session/"+b.sessID[w]
		rec.patchOrd = patches[w]
		body = b.patchBody(w, patches[w], traced)
		b.patchRecs[w] = append(b.patchRecs[w], i)
		patches[w]++
	}
	if open {
		time.Sleep(time.Until(due))
	}
	t0 := time.Now()
	code, data, err := b.do(method, path, body)
	t1 := time.Now()
	rec.done = true
	rec.service = t1.Sub(t0).Seconds()
	if open {
		rec.fromDue = t1.Sub(due).Seconds()
		rec.lag = t0.Sub(due).Seconds()
	}
	if err != nil || code/100 != 2 {
		rec.non2xx = err == nil
		logFailure(i, fmt.Errorf("%s %s: status %d, error %v", method, path, code, err))
		return
	}
	var r serveReply
	if err := json.Unmarshal(data, &r); err != nil {
		logFailure(i, err)
		return
	}
	rec.digest, rec.shards, rec.reused, rec.trace = replyDigest(r), r.Shards, r.WarmReused, r.Trace
	switch b.class[i] {
	case classWarm:
		rec.ok = r.Cache == "hit" && rec.digest == b.warmWant[b.warmIdx[i]]
	case classCold:
		rec.ok = r.Cache == "miss"
	case classPatch:
		want := int64(b.sessM[w] + 1 + rec.patchOrd)
		rec.ok = len(r.Refs) == 1 && r.Refs[0] == want
	}
	if !rec.ok {
		logFailure(i, fmt.Errorf("%s reply failed its check", classNames[b.class[i]]))
	}
}

func boolIndex(v bool) int {
	if v {
		return 1
	}
	return 0
}

// phase runs request indices from start: the open loop on both
// connections, arrivals from the plan's gaps for the given seconds, the
// connection of parity w sending the indices of parity w; the closed loop
// on one connection, back to back until the seconds elapse. (Two
// back-to-back connections saturate both vCPUs, and their capacity swung
// twice as much between runs on the build host as one connection's.)
// pause, when not nil, runs between two requests of the closed loop, and
// the time it returns extends the loop. phase returns the first unused
// index and the phase's wall time in seconds, pauses left out.
func (b *serveBench) phase(start int, seconds float64, open, traced bool, patches *[serveClients]int, pause func() time.Duration) (int, float64) {
	t0 := time.Now()
	var paused time.Duration
	end := len(b.recs)
	var due []time.Time
	if open {
		off := 0.0
		for i := start; i < len(b.recs); i++ {
			off += b.gap[i]
			if off >= seconds {
				end = i
				break
			}
			due = append(due, t0.Add(time.Duration(off*float64(time.Second))))
		}
	}
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	clients := 1
	if open {
		clients = serveClients
	}
	next := make([]int, clients)
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := start + (w-start%clients+clients)%clients
			for ; i < end; i += clients {
				if !open && pause != nil {
					p := pause()
					paused += p
					deadline = deadline.Add(p)
				}
				if !open && !time.Now().Before(deadline) {
					break
				}
				var d time.Time
				if open {
					d = due[i-start]
				}
				b.send(i, patches, traced, d, open)
			}
			next[w] = i
		}(w)
	}
	wg.Wait()
	return slices.Max(next), (time.Since(t0) - paused).Seconds()
}

// serveRun is the measured part of one run: phase 1 then phase 2.
type serveRun struct {
	open, closed [2]int // request index ranges
	closedBusy   float64
}

// afterOpen, when not nil, runs when the open phase ends; pause is the
// closed phase's.
func (b *serveBench) run(start int, seconds float64, traced bool, patches *[serveClients]int,
	afterOpen func(), pause func() time.Duration) serveRun {
	var r serveRun
	r.open[0] = start
	r.open[1], _ = b.phase(start, seconds/2, true, traced, patches, nil)
	if afterOpen != nil {
		afterOpen()
	}
	r.closed[0] = r.open[1]
	r.closed[1], r.closedBusy = b.phase(r.open[1], seconds/2, false, traced, patches, pause)
	return r
}

// closedOpsPerSec is the closed loop's capacity: its completed requests
// per second.
func (r serveRun) closedOpsPerSec(b *serveBench) float64 {
	return float64(b.count(r.closed)) / r.closedBusy
}

func (b *serveBench) count(span [2]int) int {
	n := 0
	for i := span[0]; i < span[1]; i++ {
		if b.recs[i].done {
			n++
		}
	}
	return n
}

// verify checks what the client could not check at once: every cold
// reply against a library solve of the same bytes, and every patch reply
// against a from-scratch solve of the session's mutated instance — which
// the delta ops and warm start must reproduce bit for bit. It returns
// the number of failed requests, counting the client's own failures.
func (b *serveBench) verify() int {
	jobs := make(chan func() bool)
	var (
		mu     sync.Mutex
		failed int
		wg     sync.WaitGroup
	)
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				if !job() {
					mu.Lock()
					failed++
					mu.Unlock()
				}
			}
		}()
	}
	for i := range b.recs {
		rec := &b.recs[i]
		if !rec.done {
			continue
		}
		if !rec.ok {
			mu.Lock()
			failed++ // already logged by send
			mu.Unlock()
			continue
		}
		if b.class[i] != classCold {
			continue
		}
		i := i
		jobs <- func() bool {
			raw, err := b.coldInstance(i)
			if err == nil {
				var res core.Result
				if res, err = solveWire(raw, scheduleOptions()); err == nil && resultDigest(res) != b.recs[i].digest {
					err = errors.New("cold reply differs from the library solve")
				}
			}
			if err != nil {
				logFailure(i, err)
			}
			return err == nil
		}
	}
	for w := 0; w < serveClients; w++ {
		w := w
		jobs <- func() bool { return b.replaySession(w) }
	}
	close(jobs)
	wg.Wait()
	return failed
}

// replaySession mirrors session w's mutation sequence on a plain
// instance — add appends with the next dense ID, complete swap-removes
// like core.Problem.RemoveTask — and compares each patch reply with a
// from-scratch solve. It reports whether every reply matched.
func (b *serveBench) replaySession(w int) bool {
	in, err := instio.Load(bytes.NewReader(b.sessRaw[w]))
	if err != nil {
		logFailure(-1, err)
		return false
	}
	tasks := append([]model.Task(nil), in.Tasks...)
	refOf := make([]int64, len(tasks))
	dense := make(map[int64]int, len(tasks))
	for j := range tasks {
		refOf[j] = int64(j + 1)
		dense[refOf[j]] = j
	}
	next := int64(len(tasks) + 1)
	for k, i := range b.patchRecs[w] {
		tasks = append(tasks, instio.TaskFromFile(b.churnTask(w, k), len(tasks)))
		refOf = append(refOf, next)
		dense[next] = len(tasks) - 1
		next++
		ref := b.patchRef(w, k)
		at, last := dense[ref], len(tasks)-1
		tasks[at] = tasks[last]
		tasks[at].ID = at
		tasks = tasks[:last]
		refOf[at] = refOf[last]
		dense[refOf[at]] = at
		refOf = refOf[:last]
		delete(dense, ref)

		rec := &b.recs[i]
		if !rec.done || !rec.ok {
			return true // the session diverged at a failure send already counted
		}
		mirror := &model.Instance{Params: in.Params, Utility: in.Utility, Chargers: in.Chargers,
			Tasks: append([]model.Task(nil), tasks...)}
		p, err := core.NewProblem(mirror)
		if err != nil {
			logFailure(i, err)
			return false
		}
		if resultDigest(core.TabularGreedy(p, sessionOptions())) != rec.digest {
			logFailure(i, fmt.Errorf("session %d patch %d differs from a from-scratch solve", w, k))
			return false
		}
	}
	return true
}

// requestDigest folds the first digestPrefix requests' replies in index
// order — requests every run of a seed sends identically, since the open
// loop always completes its requests. Empty when the run sent fewer.
func (b *serveBench) requestDigest() string {
	n := b.rc.size.digestPrefix
	d := newDigest()
	for i := 0; i < n; i++ {
		if !b.recs[i].done || b.recs[i].digest == "" {
			return ""
		}
		d.bytes([]byte(b.recs[i].digest))
	}
	return d.sum()
}

// openLatencies gathers phase-1 latency samples per class (index 3: all
// classes); a failed request counts as +Inf, missing any limit.
func (b *serveBench) openLatencies(span [2]int) (byClass [4][]float64, lag []float64) {
	for i := span[0]; i < span[1]; i++ {
		rec := b.recs[i]
		if !rec.done {
			continue
		}
		v := rec.fromDue * 1e3
		if !rec.ok {
			v = math.Inf(1)
		}
		byClass[b.class[i]] = append(byClass[b.class[i]], v)
		byClass[3] = append(byClass[3], v)
		lag = append(lag, rec.lag*1e3)
	}
	for c := range byClass {
		sort.Float64s(byClass[c])
	}
	sort.Float64s(lag)
	return byClass, lag
}

func (b *serveBench) attempted(runs ...serveRun) int64 {
	var n int
	for _, r := range runs {
		n += b.count(r.open) + b.count(r.closed)
	}
	return int64(n)
}

func runServeMixed(rc runConfig) (*report, error) {
	// The set-ups after the first are spread over the closed phase.
	b, setUp, err := newSetUp(func() (*serveBench, error) { return newServeBench(rc) },
		func(b *serveBench) { b.stop() }, rc.size.setupBudget, rc.seconds/2)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	rep := newReport()
	var (
		patches     [serveClients]int
		ms0, ms1    runtime.MemStats
		secondPeaks []float64
		pause       func() time.Duration
	)
	if !rc.trace {
		pause = setUp.pause
	}
	gc0 := readGC()
	cache0 := b.handle.CacheStats()
	// Memory is read over the open phase, which runs no extra set-up.
	runtime.ReadMemStats(&ms0)
	hp := startHeapPeak(time.Second)
	first := b.run(0, rc.seconds/float64(1+boolIndex(rc.trace)), false, &patches, func() {
		secondPeaks = hp.stop()
		runtime.ReadMemStats(&ms1)
	}, pause)
	gc := readGC().sub(gc0)
	cache := b.handle.CacheStats()

	byClass, lag := b.openLatencies(first.open)
	for c, name := range classNames {
		rep.extra["schedule_"+name+"_p50_ms"] = quantile(byClass[c], 0.5)
	}
	rep.extra["gen_lag_p99_ms"] = quantile(lag, 0.99)
	rep.extra["latency_p90_ms"] = quantile(byClass[3], 0.90)
	rep.extra["latency_p99_ms"] = quantile(byClass[3], 0.99)
	runs := []serveRun{first}

	if rc.trace {
		second := b.run(first.closed[1], rc.seconds/2, true, &patches, nil, nil)
		runs = append(runs, second)
		b.layerMetrics(rep, first, second, gc, cache.Hits-cache0.Hits, cache.Misses-cache0.Misses, quantile(lag, 0.99)/1e3)
	} else {
		setupS, err := setUp.finish()
		if err != nil {
			return nil, err
		}
		n := float64(b.count(first.open))
		rep.metrics["setup_s"] = setupS
		rep.metrics["ops_per_s"] = first.closedOpsPerSec(b)
		rep.metrics["latency_p50_ms"] = quantile(byClass[3], 0.50)
		rep.metrics["peak_heap_mib"] = mib(median(secondPeaks))
		rep.metrics["alloc_mib_per_op"] = mib(float64(ms1.TotalAlloc-ms0.TotalAlloc)) / n
		rep.metrics["allocs_per_op"] = float64(ms1.Mallocs-ms0.Mallocs) / n
	}
	rep.attempted = b.attempted(runs...)
	rep.failed += int64(b.verify())
	rep.digest = b.requestDigest()
	return rep, nil
}

// layerMetrics fills the per-layer metrics of a traced serve run: runtime
// and cache counters from the untraced first half, span shares from the
// traced second half (server spans over client-measured service time,
// the remainder being HTTP and JSON overhead), and deterministic counts
// over the digest prefix and the warm pool.
func (b *serveBench) layerMetrics(rep *report, plain, traced serveRun, gc gcDelta, hits, misses int64, lagP99 float64) {
	acc := newPhaseAcc()
	var serverMS, n float64
	for _, span := range [][2]int{traced.open, traced.closed} {
		for i := span[0]; i < span[1]; i++ {
			rec := b.recs[i]
			if !rec.done || !rec.ok {
				continue
			}
			acc.add(rec.trace, rec.service*1e3)
			serverMS += obs.RootDurationMS(rec.trace)
			n++
		}
	}
	acc.shares(rep)
	rep.metrics["serve.http_overhead_share"] = 1 - serverMS/acc.opMS
	rep.metrics["bench.traced_op_ms"] = acc.opMS / n
	rep.metrics["bench.trace_overhead_ratio"] = traced.closedOpsPerSec(b) / plain.closedOpsPerSec(b)
	rep.metrics["bench.gen_lag_p99_over_gap"] = lagP99 * b.rc.size.serveRate
	rep.metrics["go.gc_cpu_fraction"] = gc.cpuFraction()
	rep.metrics["go.gc_cycles_per_op"] = float64(gc.cycles) / float64(b.attempted(plain))
	rep.metrics["serve.cache_hit_ratio"] = float64(hits) / float64(hits+misses)

	var non2xx, shards, reused, patchShards float64
	for i := range b.recs {
		if b.recs[i].non2xx {
			non2xx++
		}
	}
	prefix := min(b.rc.size.digestPrefix, plain.open[1])
	for i := 0; i < prefix; i++ {
		rec := b.recs[i]
		shards += float64(rec.shards)
		if b.class[i] == classPatch {
			reused += float64(rec.reused)
			patchShards += float64(rec.shards)
		}
	}
	rep.metrics["serve.status_non2xx"] = non2xx
	rep.metrics["core.solve.shards"] = shards / float64(prefix)
	rep.metrics["core.warm.reused_over_shards"] = reused / patchShards

	var visited, offered int64
	for _, in := range b.warmIns {
		p, err := core.NewProblem(in)
		if err != nil {
			rep.failed++
			logFailure(-1, err)
			continue
		}
		opt := scheduleOptions()
		opt.KernelStats = true
		res := core.TabularGreedy(p, opt)
		visited += res.Kernel.Visited
		offered += res.Kernel.Offered
	}
	rep.metrics["core.kernel.visited_over_offered"] = float64(visited) / float64(offered)
	alloc, err := compileAllocMiB(b.warmIns[0])
	if err != nil {
		logFailure(-1, err)
	}
	rep.metrics["core.compile.alloc_mib"] = alloc
	rep.zero("online.rounds_per_op", "online.messages_per_op", "online.negotiations_per_op",
		"online.rounds_per_s", "transport.tcp_over_mem")
}
