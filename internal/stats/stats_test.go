package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEq(Mean([]float64{1, 2, 3, 4}), 2.5) {
		t.Error("Mean wrong")
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	if Variance([]float64{5}) != 0 {
		t.Error("single-point variance != 0")
	}
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(Variance(xs), 4) {
		t.Errorf("Variance = %v, want 4", Variance(xs))
	}
}

func TestMinMax(t *testing.T) {
	if _, _, err := MinMax(nil); err != ErrEmpty {
		t.Error("MinMax(nil) should fail")
	}
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil || lo != -1 || hi != 7 {
		t.Errorf("MinMax = %v %v %v", lo, hi, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		got, err := Quantile(xs, c.q)
		if err != nil || !almostEq(got, c.want) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation.
	got, _ := Quantile([]float64{0, 10}, 0.3)
	if !almostEq(got, 3) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Error("Quantile(nil) should fail")
	}
	// Quantile must not reorder its input.
	in := []float64{5, 1, 3}
	if _, err := Quantile(in, 0.5); err != nil || in[0] != 5 {
		t.Error("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Error("Summarize(nil) should fail")
	}
	b, err := Summarize([]float64{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Min != 1 || b.Max != 5 || !almostEq(b.Median, 3) ||
		!almostEq(b.Q1, 2) || !almostEq(b.Q3, 4) || b.N != 5 || !almostEq(b.Mean, 3) {
		t.Errorf("Summarize = %+v", b)
	}
}

// Property: quantiles are monotone in q and bounded by the extrema.
func TestQuantileMonotoneProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 10
		}
		lo, hi, _ := MinMax(xs)
		prev := lo
		for q := 0.0; q <= 1.0; q += 0.1 {
			v, err := Quantile(xs, q)
			if err != nil || v < prev-1e-9 || v < lo-1e-9 || v > hi+1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{Rand: rng, MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation invariant and scales quadratically.
func TestVarianceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(122))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(20)
		xs := make([]float64, n)
		ys := make([]float64, n)
		zs := make([]float64, n)
		shift, scale := rng.NormFloat64()*5, rng.Float64()*3
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + shift
			zs[i] = xs[i] * scale
		}
		if math.Abs(Variance(xs)-Variance(ys)) > 1e-9 {
			t.Fatalf("variance not translation invariant")
		}
		if math.Abs(Variance(zs)-scale*scale*Variance(xs)) > 1e-9 {
			t.Fatalf("variance not scaling quadratically")
		}
	}
}
