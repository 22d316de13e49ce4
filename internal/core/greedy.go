package core

import (
	"context"
	"math/rand"
	"runtime"

	"haste/internal/obs"
)

// Options configures the centralized offline algorithm.
type Options struct {
	// Colors is the control parameter C of TabularGreedy. C = 1 collapses
	// to the locally greedy algorithm (½-approximation); growing C pushes
	// the ratio toward 1−1/e at higher cost. Defaults to 1.
	Colors int

	// Samples is the number of Monte-Carlo color vectors used to estimate
	// the expectation 𝔽(Q) = E_c[f(sample_c(Q))] when Colors > 1 (common
	// random numbers: the same vectors are used throughout a run).
	// Defaults to 8·Colors. Ignored when Colors == 1, where the
	// expectation is exact.
	Samples int

	// Rng drives color sampling. Defaults to a deterministic source so
	// runs are reproducible; pass rand.New(rand.NewSource(seed)) to vary.
	Rng *rand.Rand

	// PreferStay breaks exact marginal ties in favor of the policy chosen
	// in the previous slot, which avoids gratuitous orientation switches
	// (and hence switching-delay losses) once tasks saturate. Defaults to
	// true via DefaultOptions.
	PreferStay bool

	// Workers bounds the component pool of a sharded run (see Shard): at
	// most Workers components are compiled and scheduled concurrently — a
	// component's sub-Problem is compiled in the worker that first runs
	// it. 0 defaults to runtime.GOMAXPROCS(0).
	// A monolithic run is one sequential sweep and ignores it. Every
	// worker count produces a bit-identical result: each component runs
	// sequentially on its own states and the stitch walks components in
	// canonical order (internal/difftest's sharded and mutation-walk
	// sweeps enforce this).
	Workers int

	// KernelStats collects flat-kernel work counters (calls, cover
	// entries visited, entries skipped by windows and saturation pruning)
	// into Result.Kernel. The run counts each greedy step's work from the
	// policy windows and the samples' live-list lengths, so the schedule
	// and the scan taken are those of an uncounted run. Sharded runs
	// aggregate per-component counters in canonical component order, so
	// the counts do not depend on Workers either. Counting stays opt-in
	// because it costs a loop over the step's policies and samples.
	KernelStats bool

	// Shard selects the shard-and-stitch decomposition (shard.go): the
	// connected components of the charger–task coverage graph are exactly
	// independent subproblems, scheduled concurrently under the Workers
	// bound and stitched back together. ShardAuto (the default) turns it
	// on when the instance has at least DefaultShardThreshold schedulable
	// components. The stitched result has exactly the monolithic utility
	// and agrees with the monolithic schedule on every cell it assigns;
	// cells past a component's own horizon stay -1 (the monolithic run
	// fills them with zero-gain assignments). internal/difftest's sharded
	// sweep enforces the equivalence.
	Shard ShardMode

	// Trace, when non-nil, records a phase-level span tree of the run —
	// greedy/evaluate for a monolithic solve; decompose, per-component
	// solves (with component size, worker id and warm-adoption flag) and
	// stitch for a sharded one — into Result.Trace, with the run's
	// shard/warm/kernel counters folded into the root span's attributes.
	// The probe is observational only: spans bracket whole phases, never
	// inner-loop iterations, so a traced run's schedule is bit-identical
	// to an untraced one, and a nil Trace costs nothing (obs's disabled
	// path is alloc-free, pinned by testing.AllocsPerRun in trace_test.go).
	Trace *obs.Trace
}

// DefaultOptions returns the options used by the paper's experiments for
// a given color count.
func DefaultOptions(colors int) Options {
	return Options{Colors: colors, PreferStay: true}
}

func (o Options) normalize() Options {
	if o.Colors < 1 {
		o.Colors = 1
	}
	// Colors are stored in a byte-sized table; beyond a few dozen the
	// approximation gain is < (nK choose 2)/C anyway (Lemma 5.1).
	if o.Colors > 255 {
		o.Colors = 255
	}
	if o.Colors == 1 {
		o.Samples = 1
	} else if o.Samples <= 0 {
		o.Samples = 8 * o.Colors
	}
	if o.Rng == nil {
		o.Rng = rand.New(rand.NewSource(1))
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// useShards decides whether a normalized run takes the shard-and-stitch
// path. ShardAuto asks the problem for its (cached) component count.
func (o Options) useShards(p *Problem) bool {
	switch o.Shard {
	case ShardOff:
		return false
	case ShardOn:
		return true
	default:
		return p.SchedulableComponents() >= DefaultShardThreshold
	}
}

// Result is the output of an offline scheduling run.
type Result struct {
	Schedule Schedule
	RUtility float64 // HASTE-R objective f(X) of the schedule

	// Kernel aggregates the evaluation kernel's work counters over all
	// sample states when Options.KernelStats was set (zero otherwise).
	Kernel KernelStats

	// Shards is the number of independently scheduled components when the
	// run took the shard-and-stitch path (0 for a monolithic run).
	Shards int

	// WarmReused counts the components whose sub-Problem's last run
	// matched this run's options and plan slice, so its result was
	// adopted without re-running (warm.go; sharded runs on problems made
	// by CloneCompiled only).
	WarmReused int

	// Trace echoes Options.Trace after the run recorded its phase tree
	// into it (nil when tracing was off). Render with Trace.Tree().
	Trace *obs.Trace

	// gains holds a component run's per-cell gains, [i*K+k] in its own
	// index space, which the sharded stitch sums into RUtility (nil for
	// every other run).
	gains []float64
}

// TabularGreedy is Algorithm 2, the centralized offline algorithm for
// HASTE. For every color c ∈ [C] it sweeps all partitions Θ_{i,k} in slot-
// major order and greedily assigns the policy maximizing the (estimated)
// expected marginal gain 𝔽(Q + x) − 𝔽(Q) over the samples whose color for
// that partition equals c. Finally each partition samples one of its C
// assignments uniformly at random. With C = 1 this is exactly the locally
// greedy ½-approximation; as C → ∞ the approximation ratio approaches
// 1−1/e (Lemma 5.1), and accounting for switching delay the overall
// guarantee is (1−ρ)(1−1/e) (Theorem 5.1).
//
// Workers never changes the output schedule — it only sizes the component
// pool of a sharded run. See Options.Workers.
func TabularGreedy(p *Problem, opt Options) Result {
	res, _ := tabularGreedy(nil, p, opt)
	return res
}

// TabularGreedyCtx is TabularGreedy with cooperative cancellation: the run
// checks ctx between greedy stages (one partition's selection + state
// update), so a cancelled caller gets control back within one stage — the
// granularity a long request can be abandoned at without tearing shared
// state. On cancellation it returns ctx.Err() and a zero Result; all
// pooled EnergyStates are released either way (Problem.StatesInUse drops
// back to the caller's balance), and the Problem remains fully reusable —
// an uncancelled rerun is bit-identical to TabularGreedy. The service
// layer (internal/serve) threads per-request timeouts through this.
func TabularGreedyCtx(ctx context.Context, p *Problem, opt Options) (Result, error) {
	res, ok := tabularGreedy(ctx.Done(), p, opt)
	if !ok {
		return Result{}, ctx.Err()
	}
	return res, nil
}

// tabularGreedy dispatches a run: done, when non-nil, aborts the run at
// the next stage boundary (ok = false). The cancellation probe is a
// non-blocking channel read per partition step — it cannot reorder or
// change any floating-point work, so cancelled-then-retried runs and
// never-cancelled runs stay on the canonical schedule.
func tabularGreedy(done <-chan struct{}, p *Problem, opt Options) (Result, bool) {
	opt = opt.normalize()
	shard := opt.useShards(p)
	if !shard && !p.monoBuilt.Load() {
		// The first monolithic run builds the field-wide policy space; the
		// build is recorded as its own compile tree, beside the one
		// NewProblemTraced records, not as part of the solve.
		p.buildMonolith(opt.Trace)
	}
	root := opt.Trace.Start("solve")
	var res Result
	var ok bool
	if shard {
		res, ok = shardedGreedy(done, p, opt, root)
	} else {
		plan := drawColorPlan(opt.Rng, len(p.In.Chargers), p.K, opt.Colors, opt.Samples)
		res, ok = monolithicGreedy(done, p, opt, &plan, false, root)
	}
	if !ok {
		root.End()
		return res, false
	}
	endSolve(root, opt, &res)
	return res, true
}

// cancelled reports whether done is closed; a nil done never is.
func cancelled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// endSolve folds a finished run's counters into the attributes of its
// solve root, ends the root and echoes the trace into the result.
func endSolve(root obs.SpanRef, opt Options, res *Result) {
	root.Int("shards", int64(res.Shards)).Int("warm_reused", int64(res.WarmReused))
	if opt.KernelStats {
		root.Int("kernel_calls", res.Kernel.Calls).
			Int("kernel_visited", res.Kernel.Visited).
			Int("kernel_offered", res.Kernel.Offered).
			Int("kernel_pruned", res.Kernel.Pruned)
	}
	root.End()
	res.Trace = opt.Trace
}

// monolithicGreedy is the classic single-problem body of Algorithm 2.
// opt must already be normalized. plan supplies every random draw of the
// run (see colorPlan): the monolithic route draws it from opt.Rng, the
// sharded path hands each component its slice of the globally drawn
// tables. cellGains marks a component run, which also records its cell
// gains for the stitch. parent is the span the run's greedy/evaluate
// phases are recorded under (the run's root for a monolithic solve, the
// component span for a sharded sub-run); the zero SpanRef disables
// recording.
func monolithicGreedy(done <-chan struct{}, p *Problem, opt Options, plan *colorPlan, cellGains bool, parent obs.SpanRef) (Result, bool) {
	n, K, C, N := len(p.In.Chargers), p.K, opt.Colors, opt.Samples

	sched := NewSchedule(n, K)
	if K == 0 || n == 0 {
		return Result{Schedule: sched}, true
	}

	states := make([]*EnergyState, N)
	for s := range states {
		states[s] = p.AcquireState()
	}
	defer func() {
		for _, st := range states {
			p.ReleaseState(st)
		}
	}()

	// q[i][k*C+c]: the S-C tuple table Q — the policy assigned to
	// partition (i,k) in color round c.
	q := make([][]int32, n)
	for i := range q {
		row := make([]int32, K*C)
		for idx := range row {
			row[idx] = -1
		}
		q[i] = row
	}

	// With the flat kernel a step whose partition several samples share
	// runs through the entry-major batched scan and apply (kernel.go); the
	// per-state scan remains for custom utilities. Both compute
	// bit-identical gains.
	p.monolith() // builds Γ and the cover lists on a Problem's first use
	// Counting reads the flat kernel's compiled lists; the generic kernel
	// has none, so its runs report zero counts.
	count := opt.KernelStats && p.kern.linear
	var kern KernelStats
	maxPol := 0
	for _, g := range p.mono.gamma {
		maxPol = max(maxPol, len(g))
	}
	gains := make([]float64, maxPol)
	acc := make([]float64, N) // per-sample accumulators of the batched kernels

	gsp := parent.Start("greedy").
		Int("chargers", int64(n)).Int("slots", int64(K)).
		Int("colors", int64(C)).Int("samples", int64(N))
	affected := make([]int, 0, N)
	for c := 0; c < C; c++ {
		for k := 0; k < K; k++ {
			for i := 0; i < n; i++ {
				if done != nil && cancelled(done) {
					return Result{}, false
				}
				affected = affected[:0]
				cc := uint8(c)
				for s, col := range plan.colorOf[(i*K+k)*N : (i*K+k+1)*N] {
					if col == cc {
						affected = append(affected, s)
					}
				}
				prev := int32(-1)
				if opt.PreferStay && k > 0 {
					prev = q[i][(k-1)*C+c]
				}
				if count {
					kern.countStep(p, states, affected, i, k)
				}
				batch := p.kern.linear && len(affected) > 1
				var best int
				if batch {
					nPol := len(p.mono.gamma[i])
					gainsBatchFlat(p, states, affected, i, k, nPol, gains, acc)
					best = argmaxPolicy(gains[:nPol], int(prev), opt.PreferStay)
				} else {
					best = selectPolicy(p, states, affected, i, k, int(prev), opt.PreferStay, gains)
				}
				q[i][k*C+c] = int32(best)
				if batch {
					applyBatchFlat(p, states, affected, i, k, best, acc)
				} else {
					for _, s := range affected {
						states[s].Apply(i, k, best)
					}
				}
			}
		}
	}

	// Line 6–8 of Algorithm 2: sample one color per partition.
	for i := 0; i < n; i++ {
		for k := 0; k < K; k++ {
			sched.Policy[i][k] = int(q[i][k*C+int(plan.final[i*K+k])])
		}
	}
	gsp.End()
	esp := parent.Start("evaluate")
	res := Result{Schedule: sched}
	if cellGains {
		res.gains = make([]float64, n*K)
	}
	res.RUtility = evaluate(p, sched, res.gains)
	esp.End()
	if count {
		for _, st := range states {
			kern.countPruned(st)
		}
		res.Kernel = kern
	}
	return res, true
}

// selectPolicy is the per-state reference selection for partition (i,k):
// it fills gains[pol] with the summed marginal over the affected sample
// states (in affected order — the canonical reduction order the batched
// scan reproduces) and reduces with argmaxPolicy.
func selectPolicy(p *Problem, states []*EnergyState, affected []int, i, k, prev int, preferStay bool, gains []float64) int {
	nPol := len(p.monolith().gamma[i])
	for pol := 0; pol < nPol; pol++ {
		var gain float64
		for _, s := range affected {
			gain += states[s].Marginal(i, k, pol)
		}
		gains[pol] = gain
	}
	return argmaxPolicy(gains[:nPol], prev, preferStay)
}

// argmaxPolicy is the single reduction defining the selection's tie
// semantics for both scans (per-state and batched): the maximum gain
// wins; on exact float equality the previous slot's policy prev wins when
// preferStay is set — regardless of where prev sits in the scan order —
// and otherwise the lowest index wins.
func argmaxPolicy(gains []float64, prev int, preferStay bool) int {
	best := 0
	for pol := 1; pol < len(gains); pol++ {
		if gains[pol] > gains[best] {
			best = pol
		}
	}
	if preferStay && prev >= 0 && prev < len(gains) && prev != best && gains[prev] == gains[best] {
		best = prev
	}
	return best
}
