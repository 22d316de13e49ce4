package main

import (
	"fmt"
	"runtime"

	"haste/internal/core"
	"haste/internal/model"
	"haste/internal/obs"
	"haste/internal/sim"
	"haste/internal/workload"
)

// Seed streams: each workload's inputs come from its own stream of the
// run seed, so adding a workload never changes another's inputs.
const (
	streamPaper = iota + 1
	streamFleet
	streamOnlineMem
	streamOnlineTCP
	streamServeWarm
	streamServeCold
	streamServeSession
	streamServePlan
	streamServeWarmUp
)

// warmUpSeed draws the instance of every workload's warm-up op in place of
// the run seed. The warm-up is part of set-up, and one instance's cost
// varies a lot with the seed, so a seeded warm-up would make setup_s
// measure the draw instead of the code.
const warmUpSeed = 0

// libBench is the library closed loop: compile an instance of the pool,
// schedule it with TabularGreedy and, for paper-c4, execute the schedule
// with sim — the path `haste eval` takes, minus file I/O.
type libBench struct {
	pool    []*model.Instance
	warm    *model.Instance // the warm-up op's instance
	opt     core.Options
	execute bool

	// The last op's output, verified and dropped by check so the next
	// op's compile does not share the heap with it.
	p   *core.Problem
	res core.Result
	out sim.Outcome

	first firstOutput
}

func newLibBench(cfg workload.Config, seed int64, stream, n int, opt core.Options, execute bool) *libBench {
	b := &libBench{opt: opt, execute: execute, first: make(firstOutput, n),
		warm: cfg.Generate(rngFor(warmUpSeed, stream, 0))}
	for j := 0; j < n; j++ {
		b.pool = append(b.pool, cfg.Generate(rngFor(seed, stream, j)))
	}
	return b
}

func (b *libBench) op(i int, tr *obs.Trace) error { return b.solve(b.pool[i%len(b.pool)], tr) }

func (b *libBench) solve(in *model.Instance, tr *obs.Trace) error {
	p, err := core.NewProblemTraced(in, tr)
	if err != nil {
		return err
	}
	opt := b.opt
	opt.Trace = tr
	b.p, b.res = p, core.TabularGreedy(p, opt)
	if b.execute {
		sp := tr.Start("sim.Execute")
		b.out = sim.Execute(p, b.res.Schedule)
		sp.End()
	}
	return nil
}

// check verifies op i's output and holds its instance to the output it
// gave the first time.
func (b *libBench) check(i int) error {
	sum, err := b.verify()
	if err != nil {
		return err
	}
	return b.first.match(i%len(b.pool), sum)
}

// verify holds the last solve to the contracts the tests pin — the
// reported utility is exactly the schedule's re-evaluated utility, no
// pooled state leaks, a sharded run schedules every component, the
// switching-aware utility keeps Theorem 5.1's (1−ρ) bound — and returns
// its output digest.
func (b *libBench) verify() (string, error) {
	p, res := b.p, b.res
	b.p, b.res = nil, core.Result{}
	if got := core.Evaluate(p, res.Schedule); got != res.RUtility {
		return "", fmt.Errorf("Evaluate = %v, TabularGreedy reported RUtility %v", got, res.RUtility)
	}
	if n := p.StatesInUse(); n != 0 {
		return "", fmt.Errorf("%d pooled energy states still in use", n)
	}
	if res.Shards > 0 && res.Shards != p.SchedulableComponents() {
		return "", fmt.Errorf("%d shards scheduled, instance has %d schedulable components", res.Shards, p.SchedulableComponents())
	}
	d := newDigest()
	d.cells(res.Schedule.Policy)
	d.float(res.RUtility)
	d.int(int64(res.Shards))
	if b.execute {
		if floor := (1-p.In.Params.Rho)*res.RUtility - 1e-9; b.out.Utility < floor {
			return "", fmt.Errorf("executed utility %v below (1-rho)*RUtility %v", b.out.Utility, floor)
		}
		d.float(b.out.Utility)
		d.int(int64(b.out.Switches))
	}
	return d.sum(), nil
}

// warmUp runs one untimed op so the loop starts with caches and pools
// primed.
func (b *libBench) warmUp() error {
	if err := b.solve(b.warm, nil); err != nil {
		return err
	}
	_, err := b.verify()
	return err
}

// counters is the deterministic pass of a traced run: kernel work
// counters and shard counts over the first k pool instances, and the
// allocation of one compile.
func (b *libBench) counters(rep *report, k int) error {
	var visited, offered, shards int64
	for j := 0; j < k; j++ {
		p, err := core.NewProblem(b.pool[j])
		if err != nil {
			return err
		}
		opt := b.opt
		opt.KernelStats = true
		res := core.TabularGreedy(p, opt)
		visited += res.Kernel.Visited
		offered += res.Kernel.Offered
		shards += int64(res.Shards)
	}
	rep.metrics["core.kernel.visited_over_offered"] = float64(visited) / float64(offered)
	rep.metrics["core.solve.shards"] = float64(shards) / float64(k)
	alloc, err := compileAllocMiB(b.pool[0])
	rep.metrics["core.compile.alloc_mib"] = alloc
	return err
}

// compileAllocMiB is the heap allocated by one compile of in.
func compileAllocMiB(in *model.Instance) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := core.NewProblem(in)
	runtime.ReadMemStats(&after)
	return mib(float64(after.TotalAlloc - before.TotalAlloc)), err
}

// layersBypassedByLibrary are the per-layer metrics of the service and
// the negotiation, which the library workloads never reach.
var layersBypassedByLibrary = []string{
	"bench.gen_lag_p99_over_gap", "core.warm.reused_over_shards",
	"serve.cache_hit_ratio", "serve.status_non2xx", "serve.http_overhead_share",
	"online.rounds_per_op", "online.messages_per_op", "online.negotiations_per_op",
	"online.rounds_per_s", "transport.tcp_over_mem",
}

// runLibrary is the run shape of both library workloads.
func runLibrary(rc runConfig, build func() *libBench, counterInstances int) (*report, error) {
	b, setUp, err := newSetUp(func() (*libBench, error) {
		b := build()
		return b, b.warmUp()
	}, func(*libBench) {}, rc.size.setupBudget, rc.seconds)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	if rc.trace {
		tracedRun(rep, b, rc.seconds, len(b.pool))
		if err := b.counters(rep, min(counterInstances, len(b.pool))); err != nil {
			return nil, err
		}
		rep.zero(layersBypassedByLibrary...)
	} else {
		loop := closedLoop(b, 0, rc.seconds, len(b.pool), false, setUp.pause)
		setupS, err := setUp.finish()
		if err != nil {
			return nil, err
		}
		endToEndFrom(rep, loop, setupS)
	}
	rep.digest = poolDigest(b.first)
	return rep, nil
}

// paper-c4: Fig. 7's dense single-component case at the §7.1 setup,
// TabularGreedy with C = 4 and the default worker count, then sim.
func runPaperC4(rc runConfig) (*report, error) {
	return runLibrary(rc, func() *libBench {
		return newLibBench(rc.size.paper, rc.seed, streamPaper, rc.size.paperPool,
			core.Options{Colors: 4, PreferStay: true}, true)
	}, 4)
}

// fleet-1e5: clustered 10⁵-task fleets through the ShardAuto path that
// `haste eval` and /v1/schedule take.
func runFleet(rc runConfig) (*report, error) {
	return runLibrary(rc, func() *libBench {
		return newLibBench(rc.size.fleet, rc.seed, streamFleet, rc.size.fleetPool,
			core.DefaultOptions(1), false)
	}, 1)
}
