package core

import (
	"math/rand"
	"testing"
)

// White-box micro-benchmarks of the flat kernel's batched loops — the
// entry-major scans the sequential TabularGreedy path runs once per
// (partition, step). BENCH_core.json records the measured numbers; the CI
// benchmark-smoke job runs these at -benchtime=1x to catch path breakage.

func benchProblem(b *testing.B) *Problem {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	p, err := NewProblem(randomFieldInstance(rng, 8, 64, 10, 30))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// benchStates builds nSt sample states with some accumulated energy so the
// scans run over a realistic mix of partial and saturated tasks.
func benchStates(p *Problem, nSt int) ([]*EnergyState, []int) {
	states := make([]*EnergyState, nSt)
	affected := make([]int, nSt)
	for s := range states {
		states[s] = NewEnergyState(p)
		affected[s] = s
		for k := 0; k < p.K; k += 2 {
			for i := range p.Gamma() {
				states[s].Apply(i, k, (s+i+k)%len(p.Gamma()[i]))
			}
		}
	}
	return states, affected
}

func BenchmarkGainsBatchFlat(b *testing.B) {
	p := benchProblem(b)
	states, affected := benchStates(p, 16)
	nPol := len(p.Gamma()[0])
	gains := make([]float64, nPol)
	acc := make([]float64, len(states))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gainsBatchFlat(p, states, affected, 0, i%p.K, nPol, gains, acc)
	}
}

func BenchmarkApplyBatchFlat(b *testing.B) {
	p := benchProblem(b)
	states, affected := benchStates(p, 16)
	acc := make([]float64, len(states))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		applyBatchFlat(p, states, affected, 0, i%p.K, i%len(p.Gamma()[0]), acc)
	}
}

func BenchmarkMarginalFlatVsGeneric(b *testing.B) {
	for _, cfg := range []struct {
		name string
		flat bool
	}{{"flat", true}, {"generic", false}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := benchProblem(b)
			p.SetFlatKernel(cfg.flat)
			states, _ := benchStates(p, 1)
			es, gamma := states[0], p.Gamma()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ch := i % len(gamma)
				es.Marginal(ch, i%p.K, i%len(gamma[ch]))
			}
		})
	}
}
