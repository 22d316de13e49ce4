package main

import (
	"fmt"
	"time"

	"haste/internal/core"
	"haste/internal/difftest"
	"haste/internal/netsim"
	"haste/internal/obs"
	"haste/internal/online"
	"haste/internal/transport"
	"haste/internal/workload"
)

// onlineBench is the negotiation closed loop: the distributed online
// algorithm run end to end on a compiled instance of the pool, with the
// messages carried by the given driver (nil: the in-memory engine).
// Compiling is set-up; the op is first bid to last commit plus the
// physical execution online.Run ends with.
type onlineBench struct {
	probs  []*core.Problem
	warm   *core.Problem // the warm-up op's instance
	driver netsim.Factory

	p            *core.Problem // the last op's instance and output, for check
	res          online.Result
	tracedRounds int64 // rounds run by traced ops

	first firstOutput
	stats []online.Stats // each instance's first-run stats
	// Each instance's first output, kept only for the in-memory replay of
	// a run over another driver: a paper-scale result would grow the live
	// heap the peak-heap metric reads.
	firstRes []online.Result
}

func newOnlineBench(cfg workload.Config, seed int64, stream, n int, driver netsim.Factory) (*onlineBench, error) {
	b := &onlineBench{driver: driver, first: make(firstOutput, n), stats: make([]online.Stats, n)}
	if driver != nil {
		b.firstRes = make([]online.Result, n)
	}
	warm, err := core.NewProblem(cfg.Generate(rngFor(warmUpSeed, stream, 0)))
	if err != nil {
		return nil, err
	}
	b.warm = warm
	for j := 0; j < n; j++ {
		p, err := core.NewProblem(cfg.Generate(rngFor(seed, stream, j)))
		if err != nil {
			return nil, err
		}
		b.probs = append(b.probs, p)
	}
	return b, b.warmUp()
}

// options are the run options of pool instance j: the protocol's seed is
// fixed per instance, so every pass over the pool repeats its outputs.
func (b *onlineBench) options(j int) online.Options {
	return online.Options{Seed: int64(j + 1), Driver: b.driver}
}

func (b *onlineBench) op(i int, tr *obs.Trace) error {
	j := i % len(b.probs)
	return b.run(b.probs[j], b.options(j), tr)
}

func (b *onlineBench) run(p *core.Problem, opt online.Options, tr *obs.Trace) error {
	if tr != nil {
		sp := tr.Start("online.Run")
		defer sp.End()
		opt.Driver = tracedFactory(opt.Driver, sp)
	}
	res, err := online.Run(p, opt)
	b.p, b.res = p, res
	if tr != nil {
		b.tracedRounds += int64(res.Stats.Net.Rounds)
	}
	return err
}

// check verifies op i's output and holds its instance to the output it
// gave the first time.
func (b *onlineBench) check(i int) error {
	if err := b.verify(); err != nil {
		return err
	}
	j := i % len(b.probs)
	if b.first[j] == "" {
		b.stats[j] = b.res.Stats
		if b.firstRes != nil {
			b.firstRes[j] = b.res
		}
	}
	return b.first.match(j, onlineDigest(b.res))
}

// verify holds the last run to the message balance netsim documents, the
// reconciliation of per-negotiation and network totals, and zero leaked
// pooled states.
func (b *onlineBench) verify() error {
	st := b.res.Stats
	if err := difftest.CheckMessageBalance(st.Net); err != nil {
		return err
	}
	if st.TotalMessages() != st.Net.Messages || st.TotalRounds() != st.Net.Rounds {
		return fmt.Errorf("negotiation totals (%d msgs, %d rounds) disagree with the network's (%d, %d)",
			st.TotalMessages(), st.TotalRounds(), st.Net.Messages, st.Net.Rounds)
	}
	if k := b.p.StatesInUse(); k != 0 {
		return fmt.Errorf("%d pooled energy states still in use", k)
	}
	return nil
}

func (b *onlineBench) warmUp() error {
	if err := b.run(b.warm, b.options(0), nil); err != nil {
		return err
	}
	return b.verify()
}

func onlineDigest(r online.Result) string {
	d := newDigest()
	for _, row := range r.Orientations {
		d.int(int64(len(row)))
		for _, v := range row {
			d.float(v)
		}
	}
	d.float(r.Outcome.Utility)
	d.int(int64(r.Outcome.Switches))
	n := r.Stats.Net
	for _, v := range []int64{int64(n.Rounds), n.Attempted, n.Messages, n.Dropped, n.Duplicated,
		n.Delayed, n.Crashes, n.CrashLost, n.Expired, int64(len(r.Stats.Negotiations)),
		int64(r.Stats.NonQuiescentSessions), int64(r.Stats.UnackedCommits), r.Stats.Retransmits} {
		d.int(v)
	}
	return d.sum()
}

// tracedFactory wraps a driver factory so every negotiation session's
// Driver.Run is recorded as a span under parent: the benchmark's view of
// the netsim round loop, taken from outside the program.
func tracedFactory(f netsim.Factory, parent obs.SpanRef) netsim.Factory {
	if f == nil {
		f = netsim.MemFactory
	}
	return func(neighbors [][]int, opt netsim.Options) (netsim.Driver, error) {
		d, err := f(neighbors, opt)
		if err != nil {
			return nil, err
		}
		return tracedDriver{Driver: d, parent: parent}, nil
	}
}

type tracedDriver struct {
	netsim.Driver
	parent obs.SpanRef
}

func (d tracedDriver) Run(nodes []netsim.Node) (netsim.Stats, error) {
	sp := d.parent.Start("netsim.Driver.Run")
	st, err := d.Driver.Run(nodes)
	sp.Int("rounds", int64(st.Rounds)).End()
	return st, err
}

// layersBypassedByOnline are the per-layer metrics of core's solve and of
// the service, which the negotiation never reaches.
var layersBypassedByOnline = []string{
	"bench.gen_lag_p99_over_gap", "core.solve.shards", "core.kernel.visited_over_offered",
	"core.warm.reused_over_shards", "serve.cache_hit_ratio", "serve.status_non2xx", "serve.http_overhead_share",
}

// runOnline is the run shape of both negotiation workloads. An online-tcp
// run also replays every pool instance on the in-memory engine: the
// outputs must be bit-identical (the cross-driver contract), and in a
// traced run the replay times the in-memory baseline of the TCP ratio.
func runOnline(rc runConfig, cfg workload.Config, stream, n int, driver netsim.Factory) (*report, error) {
	b, setUp, err := newSetUp(func() (*onlineBench, error) {
		return newOnlineBench(cfg, rc.seed, stream, n, driver)
	}, func(*onlineBench) {}, rc.size.setupBudget, rc.seconds)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	var loop loopStats
	if rc.trace {
		var traced loopStats
		loop, traced = tracedRun(rep, b, rc.seconds, n)
		driverMS := traced.phases.ms["online.Run/netsim.Driver.Run"]
		rep.metrics["online.rounds_per_s"] = float64(b.tracedRounds) / (driverMS / 1e3)
		var rounds, msgs, negs int64
		for _, st := range b.stats {
			rounds += int64(st.Net.Rounds)
			msgs += st.Net.Messages
			negs += int64(len(st.Negotiations))
		}
		rep.metrics["online.rounds_per_op"] = float64(rounds) / float64(n)
		rep.metrics["online.messages_per_op"] = float64(msgs) / float64(n)
		rep.metrics["online.negotiations_per_op"] = float64(negs) / float64(n)
		alloc, err := compileAllocMiB(b.probs[0].In)
		if err != nil {
			return nil, err
		}
		rep.metrics["core.compile.alloc_mib"] = alloc
		rep.zero(layersBypassedByOnline...)
		if driver == nil {
			rep.zero("transport.tcp_over_mem")
		}
	} else {
		loop = closedLoop(b, 0, rc.seconds, n, false, setUp.pause)
		setupS, err := setUp.finish()
		if err != nil {
			return nil, err
		}
		endToEndFrom(rep, loop, setupS)
	}
	if driver != nil {
		memMS, err := b.replayInMemory(rep)
		if err != nil {
			return nil, err
		}
		if rc.trace {
			rep.metrics["transport.tcp_over_mem"] = loop.busy() * 1e3 / float64(loop.ops()) / memMS
		}
	}
	rep.digest = poolDigest(b.first)
	return rep, nil
}

// replayInMemory runs every pool instance once on the in-memory engine,
// counts each output that differs from the driver's as a failed op, and
// returns the mean in-memory op time in ms.
func (b *onlineBench) replayInMemory(rep *report) (float64, error) {
	var total time.Duration
	for j, p := range b.probs {
		opt := b.options(j)
		opt.Driver = nil
		t0 := time.Now()
		res, err := online.Run(p, opt)
		total += time.Since(t0)
		if err != nil {
			return 0, err
		}
		if err := difftest.CompareOnlineResults(res, b.firstRes[j]); err != nil {
			rep.failed++
			logFailure(j, fmt.Errorf("instance %d: the driver's output differs from the in-memory engine's: %w", j, err))
		}
	}
	return total.Seconds() * 1e3 / float64(len(b.probs)), nil
}

// online-mem: Fig. 16 at the paper's §7.1 scale over the in-memory engine.
func runOnlineMem(rc runConfig) (*report, error) {
	return runOnline(rc, rc.size.onlineMem, streamOnlineMem, rc.size.onlineMemPool, nil)
}

// online-tcp: the same protocol over loopback TCP sockets at mid scale.
func runOnlineTCP(rc runConfig) (*report, error) {
	return runOnline(rc, rc.size.onlineTCP, streamOnlineTCP, rc.size.onlineTCPPool, transport.Factory)
}
