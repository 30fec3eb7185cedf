package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); !almost(got, 5, 1e-12) {
		t.Errorf("Mean = %v", got)
	}
	// Population variance is 4; unbiased divides by n−1: 32/7.
	if got := Variance(xs); !almost(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v", got)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if !math.IsNaN(Mean(nil)) {
		t.Error("Mean(nil) should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("Variance of singleton should be NaN")
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{3, -1, 7, 0})
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %v, %v", min, max)
	}
	defer func() {
		if recover() == nil {
			t.Error("MinMax(empty) did not panic")
		}
	}()
	MinMax(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	if got := Percentile(xs, 0); got != 15 {
		t.Errorf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); got != 50 {
		t.Errorf("P100 = %v", got)
	}
	if got := Percentile(xs, 50); got != 35 {
		t.Errorf("P50 = %v", got)
	}
	// Linear interpolation: h = 0.9*4 = 3.6 → 40 + 0.6*10 = 46.
	if got := Percentile(xs, 90); !almost(got, 46, 1e-12) {
		t.Errorf("P90 = %v", got)
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("Percentile(nil) should be NaN")
	}
}

func TestPercentilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Percentile(101) did not panic")
		}
	}()
	Percentile([]float64{1}, 101)
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Error("Percentile sorted its input in place")
	}
}

func TestMSE(t *testing.T) {
	if got := MSE([]float64{1, 2}, []float64{1, 4}); !almost(got, 2, 1e-12) {
		t.Errorf("MSE = %v", got)
	}
	if !math.IsNaN(MSE(nil, nil)) {
		t.Error("MSE of empty should be NaN")
	}
	defer func() {
		if recover() == nil {
			t.Error("MSE length mismatch did not panic")
		}
	}()
	MSE([]float64{1}, []float64{1, 2})
}

func TestAutocorrelation(t *testing.T) {
	// A constant-increment ramp has strong positive lag-1 correlation.
	n := 200
	ramp := make([]float64, n)
	for i := range ramp {
		ramp[i] = float64(i)
	}
	ac := Autocorrelation(ramp, []int{0, 1})
	if !almost(ac[0], 1, 1e-12) {
		t.Errorf("lag0 = %v", ac[0])
	}
	if ac[1] < 0.95 {
		t.Errorf("ramp lag1 = %v, want ≈1", ac[1])
	}
	// White noise decorrelates.
	r := rand.New(rand.NewSource(5))
	noise := make([]float64, 5000)
	for i := range noise {
		noise[i] = r.NormFloat64()
	}
	ac = Autocorrelation(noise, []int{1, 5})
	for i, v := range ac {
		if math.Abs(v) > 0.05 {
			t.Errorf("noise autocorrelation[%d] = %v", i, v)
		}
	}
	// Degenerate inputs.
	bad := Autocorrelation([]float64{1}, []int{0})
	if !math.IsNaN(bad[0]) {
		t.Error("autocorrelation of singleton should be NaN")
	}
	out := Autocorrelation(ramp, []int{-1, n + 1})
	if !math.IsNaN(out[0]) || !math.IsNaN(out[1]) {
		t.Error("invalid lags should be NaN")
	}
}

func TestHistogram(t *testing.T) {
	xs := []float64{0.1, 0.2, 0.6, 0.9, 1.5} // 1.5 out of range
	h, err := NewHistogram(xs, 0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[0] != 2 || h.Counts[1] != 2 {
		t.Errorf("Counts = %v", h.Counts)
	}
	if h.N != 5 {
		t.Errorf("N = %d", h.N)
	}
	if got := h.BinWidth(); !almost(got, 0.5, 1e-12) {
		t.Errorf("BinWidth = %v", got)
	}
	c := h.Centers()
	if !almost(c[0], 0.25, 1e-12) || !almost(c[1], 0.75, 1e-12) {
		t.Errorf("Centers = %v", c)
	}
	// Density: count/(n·width) = 2/(5·0.5) = 0.8 each.
	if !almost(h.Densities[0], 0.8, 1e-12) {
		t.Errorf("Densities = %v", h.Densities)
	}
	// Upper-boundary value lands in the last bin.
	h2, _ := NewHistogram([]float64{1}, 0, 1, 2)
	if h2.Counts[1] != 1 {
		t.Errorf("boundary bin: %v", h2.Counts)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, err := NewHistogram(nil, 0, 1, 0); err == nil {
		t.Error("0 bins accepted")
	}
	if _, err := NewHistogram(nil, 1, 1, 3); err == nil {
		t.Error("empty range accepted")
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 500)
		for i := range xs {
			xs[i] = r.Float64()
		}
		h, err := NewHistogram(xs, 0, 1, 20)
		if err != nil {
			return false
		}
		var total float64
		for _, d := range h.Densities {
			total += d * h.BinWidth()
		}
		return almost(total, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestKSSameDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := make([]float64, 3000)
	b := make([]float64, 3000)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64()
	}
	res, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("same-distribution KS rejected: D=%v p=%v", res.D, res.P)
	}
	if res.NA != 3000 || res.NB != 3000 {
		t.Errorf("sizes = %d, %d", res.NA, res.NB)
	}
}

func TestKSDifferentDistribution(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	a := make([]float64, 2000)
	b := make([]float64, 2000)
	for i := range a {
		a[i] = r.NormFloat64()
		b[i] = r.NormFloat64() + 0.5 // shifted
	}
	res, err := KSTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("shifted distributions not detected: D=%v p=%v", res.D, res.P)
	}
}

func TestKSExactStatistic(t *testing.T) {
	// a = {1,2}, b = {3,4}: the ECDFs are disjoint, D = 1.
	res, err := KSTwoSample([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.D, 1, 1e-12) {
		t.Errorf("D = %v, want 1", res.D)
	}
}

func TestKSEmpty(t *testing.T) {
	if _, err := KSTwoSample(nil, []float64{1}); err == nil {
		t.Error("empty sample accepted")
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(p []float64) float64 {
		dx, dy := p[0]-3, p[1]+1
		return dx*dx + 2*dy*dy
	}
	best, val := NelderMead(f, []float64{0, 0}, NelderMeadOptions{})
	if !almost(best[0], 3, 1e-4) || !almost(best[1], -1, 1e-4) {
		t.Errorf("minimizer = %v", best)
	}
	if val > 1e-8 {
		t.Errorf("value = %v", val)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(p []float64) float64 {
		a := 1 - p[0]
		b := p[1] - p[0]*p[0]
		return a*a + 100*b*b
	}
	best, _ := NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: 20000})
	if !almost(best[0], 1, 1e-3) || !almost(best[1], 1, 1e-3) {
		t.Errorf("Rosenbrock minimizer = %v", best)
	}
}

// TestNelderMeadAllocsFlat: the simplex sorts in place and builds
// trial points in reused buffers, so a longer search allocates no
// more than a short one.
func TestNelderMeadAllocsFlat(t *testing.T) {
	f := func(p []float64) float64 {
		a := 1 - p[0]
		b := p[1] - p[0]*p[0]
		return a*a + 100*b*b
	}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(20, func() {
			NelderMead(f, []float64{-1.2, 1}, NelderMeadOptions{MaxIter: iters, Tol: 1e-300})
		})
	}
	if short, long := allocs(10), allocs(400); long != short {
		t.Errorf("allocs: %v at 10 iterations, %v at 400", short, long)
	}
}

func TestNelderMeadConstrained(t *testing.T) {
	// Infeasible region (p[0] < 0) returns +Inf; minimum at boundary 0.
	f := func(p []float64) float64 {
		if p[0] < 0 {
			return math.Inf(1)
		}
		return (p[0] + 1) * (p[0] + 1)
	}
	best, _ := NelderMead(f, []float64{2}, NelderMeadOptions{})
	if best[0] < 0 || best[0] > 1e-2 {
		t.Errorf("constrained minimizer = %v", best)
	}
}

func TestNelderMeadEmpty(t *testing.T) {
	got, val := NelderMead(func(p []float64) float64 { return 42 }, nil, NelderMeadOptions{})
	if got != nil || val != 42 {
		t.Errorf("empty param = %v, %v", got, val)
	}
}

func TestFitPDFRecoversExponential(t *testing.T) {
	// Synthesize densities from a known exponential and re-fit.
	scale := 0.25
	xs := make([]float64, 50)
	dens := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(i) * 0.05
		dens[i] = math.Exp(-xs[i]/scale) / scale
	}
	model := func(p []float64) func(float64) float64 {
		return func(x float64) float64 { return math.Exp(-x/p[0]) / p[0] }
	}
	fit, err := FitPDF(xs, dens, model, []float64{1}, func(p []float64) bool { return p[0] > 1e-9 })
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Params[0], scale, 1e-3) {
		t.Errorf("fitted scale = %v, want %v", fit.Params[0], scale)
	}
	if fit.MSE > 1e-9 {
		t.Errorf("MSE = %v", fit.MSE)
	}
}

func TestFitPDFErrors(t *testing.T) {
	model := func(p []float64) func(float64) float64 {
		return func(x float64) float64 { return 0 }
	}
	if _, err := FitPDF([]float64{1}, []float64{1, 2}, model, []float64{1}, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FitPDF(nil, nil, model, []float64{1}, nil); err == nil {
		t.Error("empty data accepted")
	}
	// Everything infeasible.
	if _, err := FitPDF([]float64{1}, []float64{1}, model, []float64{1},
		func(p []float64) bool { return false }); err == nil {
		t.Error("fully infeasible fit accepted")
	}
}
