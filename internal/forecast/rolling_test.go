package forecast

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/instances"
	"repro/internal/trace"
)

// evaluateOracle is the rolling-origin evaluation refitted from
// scratch: Predict on series[:i] at every origin, once per horizon.
// The one-pass EvaluateHorizons must match it bit for bit.
func evaluateOracle(p Predictor, series []float64, h, warmup, stride int) (Errors, error) {
	if warmup < 1 || warmup >= len(series) {
		return Errors{}, fmt.Errorf("forecast: warmup %d outside (0, %d)", warmup, len(series))
	}
	if stride < 1 {
		stride = 1
	}
	var sumAbs, sumSq float64
	var n int
	for i := warmup; i+h-1 < len(series); i += stride {
		pred, err := p.Predict(series[:i], h)
		if err != nil {
			return Errors{}, err
		}
		diff := pred - series[i+h-1]
		sumAbs += math.Abs(diff)
		sumSq += diff * diff
		n++
	}
	if n == 0 {
		return Errors{}, fmt.Errorf("forecast: no forecast origins (len %d, warmup %d, h %d)", len(series), warmup, h)
	}
	return Errors{MAE: sumAbs / float64(n), RMSE: math.Sqrt(sumSq / float64(n)), N: n}, nil
}

// trimmedMean is a Predictor outside the package's built-ins: the
// rolling pass must serve it through Predict.
type trimmedMean struct{}

func (trimmedMean) Name() string { return "trimmed" }

func (trimmedMean) Predict(history []float64, h int) (float64, error) {
	if err := checkInput(history, h); err != nil {
		return 0, err
	}
	if len(history) < 3 {
		return history[len(history)-1], nil
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	var s float64
	for _, x := range history {
		s += x
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return (s - lo - hi) / float64(len(history)-2) * (1 + 1/float64(h)), nil
}

func oraclePredictors() []Predictor {
	return []Predictor{
		Naive{}, SMA{Window: 1}, SMA{Window: 3}, SMA{Window: 12},
		EWMA{Alpha: 0.2}, EWMA{Alpha: 1}, EWMA{Alpha: 0.73}, AR1{}, trimmedMean{},
	}
}

// randomSeries mixes smooth noise, repeated values (ties and constant
// runs, where the AR(1) denominator vanishes), sign changes and
// spikes.
func randomSeries(r *rand.Rand, n int) []float64 {
	xs := make([]float64, n)
	v := r.NormFloat64()
	for i := range xs {
		switch r.Intn(6) {
		case 0: // repeat
		case 1:
			v = float64(r.Intn(3))
		case 2:
			v *= -1.5
		case 3:
			v = r.ExpFloat64() * 1e3
		default:
			v = 0.7*v + r.NormFloat64()*0.01
		}
		xs[i] = v
	}
	return xs
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameErrors(a, b Errors) bool {
	return sameBits(a.MAE, b.MAE) && sameBits(a.RMSE, b.RMSE) && a.N == b.N
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkAgainstOracle runs EvaluateHorizons over hs and Evaluate per
// horizon, and compares both with the refitting oracle.
func checkAgainstOracle(t *testing.T, label string, p Predictor, series []float64, hs []int, warmup, stride int) {
	t.Helper()
	var firstErr error
	want := make([]Errors, len(hs))
	for k, h := range hs {
		w, werr := evaluateOracle(p, series, h, warmup, stride)
		got, err := Evaluate(p, series, h, warmup, stride)
		if errString(err) != errString(werr) || !sameErrors(got, w) {
			t.Fatalf("%s %s h=%d warmup=%d stride=%d: Evaluate = %+v, %v; oracle %+v, %v",
				label, p.Name(), h, warmup, stride, got, err, w, werr)
		}
		if werr != nil && firstErr == nil {
			firstErr = werr
		}
		want[k] = w
	}
	got, err := EvaluateHorizons(p, series, hs, warmup, stride)
	if errString(err) != errString(firstErr) {
		t.Fatalf("%s %s hs=%v warmup=%d stride=%d: err = %v, want %v", label, p.Name(), hs, warmup, stride, err, firstErr)
	}
	if err != nil {
		return
	}
	for k := range hs {
		if !sameErrors(got[k], want[k]) {
			t.Fatalf("%s %s h=%d warmup=%d stride=%d: rolling %+v, oracle %+v",
				label, p.Name(), hs[k], warmup, stride, got[k], want[k])
		}
	}
}

// TestRollingPassMatchesPredictPerOrigin checks every built-in
// roller's forecast at every origin and horizon against Predict on
// the same prefix, bit for bit.
func TestRollingPassMatchesPredictPerOrigin(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 14, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	series := map[string][]float64{"trace": tr.Prices[:1500]}
	for k := 0; k < 20; k++ {
		series[fmt.Sprintf("random-%d", k)] = randomSeries(r, 2+r.Intn(200))
	}
	for name, xs := range series {
		for _, p := range oraclePredictors() {
			for _, stride := range []int{1, 17} {
				ro, err := rollerFor(p)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(xs); i += stride {
					ro.fit(xs, i)
					for _, h := range []int{1, 2, 12, 144} {
						got, err := ro.at(h)
						want, werr := p.Predict(xs[:i], h)
						if err != nil || werr != nil || !sameBits(got, want) {
							t.Fatalf("%s %s origin %d h %d: rolling %v (%v), Predict %v (%v)",
								name, p.Name(), i, h, got, err, want, werr)
						}
					}
				}
			}
		}
	}
}

// TestEvaluateHorizonsMatchesOracle covers strides 1 and 17, warmup 1
// and len−1, and horizons that leave some or all origins without a
// target, on random series and a 14-day trace.
func TestEvaluateHorizonsMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 14, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		label  string
		series []float64
	}{{"trace", tr.Prices}}
	for k := 0; k < 12; k++ {
		cases = append(cases, struct {
			label  string
			series []float64
		}{fmt.Sprintf("random-%d", k), randomSeries(r, 2+r.Intn(300))})
	}
	for _, c := range cases {
		n := len(c.series)
		// n/2 leaves the origins past the middle without a target;
		// n+5 leaves every origin without one.
		hs := []int{1, 12, 144, n / 2}
		for _, p := range oraclePredictors() {
			if c.label == "trace" && p.Name() == "trimmed" {
				continue // O(n²) through Predict; the random series cover it
			}
			for _, stride := range []int{1, 17} {
				for _, warmup := range []int{1, n / 3, n - 1} {
					if warmup < 1 {
						continue
					}
					checkAgainstOracle(t, c.label, p, c.series, hs, warmup, stride)
					checkAgainstOracle(t, c.label, p, c.series, []int{1, n + 5}, warmup, stride)
				}
			}
		}
	}
}

// TestEvaluateHorizonsPerHorizonCount pins each horizon's own N: the
// shortest horizon keeps every origin, longer ones lose the origins
// whose targets fall past the end.
func TestEvaluateHorizonsPerHorizonCount(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i % 7)
	}
	es, err := EvaluateHorizons(AR1{}, series, []int{1, 50, 90}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Origin i ≥ 10 serves h while i+h−1 < 100: 90, 41 and 1 origins.
	for k, want := range []int{90, 41, 1} {
		if es[k].N != want {
			t.Errorf("horizon %d: N = %d, want %d", k, es[k].N, want)
		}
	}
	// The horizon with no origin fails the call with Evaluate's error
	// for it, whichever position it holds.
	_, err = EvaluateHorizons(AR1{}, series, []int{91, 1}, 10, 1)
	_, want := Evaluate(AR1{}, series, 91, 10, 1)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("err = %v, want %v", err, want)
	}
}

// TestEvaluateHorizonsParameterErrors keeps Evaluate's error order: a
// bad predictor parameter is reported once an origin exists, and
// "no forecast origins" otherwise.
func TestEvaluateHorizonsParameterErrors(t *testing.T) {
	series := []float64{1, 2, 3, 4, 5}
	for _, p := range []Predictor{SMA{Window: 0}, EWMA{Alpha: 0}, EWMA{Alpha: 2}} {
		for _, h := range []int{0, -3, 1, 4, 9} {
			w, werr := evaluateOracle(p, series, h, 2, 1)
			got, err := Evaluate(p, series, h, 2, 1)
			if errString(err) != errString(werr) || !sameErrors(got, w) {
				t.Errorf("%s h=%d: %v, want %v", p.Name(), h, err, werr)
			}
		}
	}
	if _, err := EvaluateHorizons(Naive{}, series, nil, 2, 1); err == nil {
		t.Error("no horizons accepted")
	}
}
