// Package forecast implements the time-series price predictors the
// paper *declines* to use (§5: "though time series forecasting may be
// used instead, ... the spot prices' autocorrelation drops off
// rapidly with a longer lag time, such predictions are likely to be
// difficult") — so the claim can be tested instead of assumed. The
// ForecastEval experiment measures each predictor's error as the
// horizon grows and shows it converging to the unconditional standard
// deviation, which is exactly why the bidding strategies work from
// the price *distribution* rather than from point forecasts.
package forecast

import (
	"fmt"
	"math"

	"repro/internal/stats"
)

// Predictor forecasts future spot prices from a history window. All
// predictors are fit once per Predict call on the supplied history.
// The rolling evaluation fits once per origin, as an online client
// would, and answers every horizon from that fit; the built-in
// predictors carry their fit forward from the previous origin with
// the same operations in the same order, so the result is bit for bit
// that of refitting with Predict.
type Predictor interface {
	// Name identifies the predictor in reports.
	Name() string
	// Predict returns the price forecast h slots ahead of the last
	// history entry (h ≥ 1). The history must be non-empty.
	Predict(history []float64, h int) (float64, error)
}

func checkInput(history []float64, h int) error {
	if len(history) == 0 {
		return fmt.Errorf("forecast: empty history")
	}
	if h < 1 {
		return fmt.Errorf("forecast: horizon %d must be at least 1", h)
	}
	return nil
}

// Naive repeats the last observed price — the strongest baseline for
// near-random-walk series and the implicit model behind "bid a bit
// above the current price" folk strategies.
type Naive struct{}

// Name implements Predictor.
func (Naive) Name() string { return "naive" }

// Predict implements Predictor.
func (Naive) Predict(history []float64, h int) (float64, error) {
	if err := checkInput(history, h); err != nil {
		return 0, err
	}
	return naiveFit(history), nil
}

func naiveFit(history []float64) float64 { return history[len(history)-1] }

// SMA predicts the mean of the last Window observations.
type SMA struct {
	// Window is the averaging window in slots (≥ 1).
	Window int
}

// Name implements Predictor.
func (s SMA) Name() string { return fmt.Sprintf("sma-%d", s.Window) }

// Predict implements Predictor.
func (s SMA) Predict(history []float64, h int) (float64, error) {
	if err := checkInput(history, h); err != nil {
		return 0, err
	}
	if err := s.validate(); err != nil {
		return 0, err
	}
	return smaFit(history, s.Window), nil
}

func (s SMA) validate() error {
	if s.Window < 1 {
		return fmt.Errorf("forecast: SMA window %d must be at least 1", s.Window)
	}
	return nil
}

// smaFit is the mean of the last window observations (all of them
// when the history is shorter).
func smaFit(history []float64, window int) float64 {
	w := window
	if w > len(history) {
		w = len(history)
	}
	return stats.Mean(history[len(history)-w:])
}

// EWMA predicts an exponentially weighted moving average with
// smoothing factor Alpha ∈ (0, 1].
type EWMA struct {
	Alpha float64
}

// Name implements Predictor.
func (e EWMA) Name() string { return fmt.Sprintf("ewma-%.2f", e.Alpha) }

// Predict implements Predictor.
func (e EWMA) Predict(history []float64, h int) (float64, error) {
	if err := checkInput(history, h); err != nil {
		return 0, err
	}
	if err := e.validate(); err != nil {
		return 0, err
	}
	return ewmaFold(history[0], e.Alpha, history[1:]), nil
}

func (e EWMA) validate() error {
	if !(e.Alpha > 0 && e.Alpha <= 1) {
		return fmt.Errorf("forecast: EWMA alpha %v outside (0, 1]", e.Alpha)
	}
	return nil
}

// ewmaFold folds xs, oldest first, into the running average v.
func ewmaFold(v, alpha float64, xs []float64) float64 {
	for _, x := range xs {
		v = alpha*x + (1-alpha)*v
	}
	return v
}

// AR1 fits a first-order autoregression by the Yule–Walker moment
// estimates (φ = lag-1 autocorrelation, μ = sample mean) and predicts
//
//	x̂(t+h) = μ + φ^h · (x(t) − μ),
//
// decaying geometrically toward the mean — the textbook consequence
// of the rapidly decaying autocorrelation §5 cites.
type AR1 struct{}

// Name implements Predictor.
func (AR1) Name() string { return "ar1" }

// Predict implements Predictor.
func (AR1) Predict(history []float64, h int) (float64, error) {
	if err := checkInput(history, h); err != nil {
		return 0, err
	}
	return fitAR1(history, stats.Mean(history)).at(h), nil
}

// ar1Fit is a fitted AR(1): mean, clamped lag-1 autocorrelation and
// the last observation.
type ar1Fit struct{ mu, phi, last float64 }

// fitAR1 fits a non-empty history whose sample mean is mu. The lag-1
// autocorrelation takes one pass, accumulating the denominator and
// the numerator in the order stats.Autocorrelation does.
func fitAR1(history []float64, mu float64) ar1Fit {
	phi := math.NaN()
	if n := len(history); n >= 2 {
		var denom, num float64
		for t, x := range history {
			d := x - mu
			denom += d * d
			if t+1 < n {
				num += d * (history[t+1] - mu)
			}
		}
		if denom != 0 {
			phi = num / denom
		}
	}
	if math.IsNaN(phi) {
		phi = 0
	}
	// Clamp to stationarity.
	if phi > 0.9999 {
		phi = 0.9999
	}
	if phi < -0.9999 {
		phi = -0.9999
	}
	return ar1Fit{mu: mu, phi: phi, last: history[len(history)-1]}
}

// at is the forecast h slots ahead.
func (f ar1Fit) at(h int) float64 {
	return f.mu + math.Pow(f.phi, float64(h))*(f.last-f.mu)
}

// Errors summarizes a rolling forecast evaluation.
type Errors struct {
	// MAE and RMSE are the rolling mean absolute / root-mean-square
	// errors.
	MAE, RMSE float64
	// N counts evaluated forecasts.
	N int
}

// Evaluate runs a rolling-origin evaluation: for each index i past
// warmup, the predictor sees history[:i] and forecasts history[i+h−1]
// (h slots ahead). stride subsamples the origins to bound cost.
func Evaluate(p Predictor, series []float64, h, warmup, stride int) (Errors, error) {
	es, err := EvaluateHorizons(p, series, []int{h}, warmup, stride)
	if err != nil {
		return Errors{}, err
	}
	return es[0], nil
}

// EvaluateHorizons is Evaluate for several horizons in one
// rolling-origin pass: the predictor is fitted once per origin and
// forecasts every horizon whose target lies inside the series.
// Element k of the result is bit for bit Evaluate(p, series, hs[k],
// warmup, stride); the first horizon left without a forecast origin
// fails the whole call with Evaluate's error for it.
func EvaluateHorizons(p Predictor, series []float64, hs []int, warmup, stride int) ([]Errors, error) {
	if warmup < 1 || warmup >= len(series) {
		return nil, fmt.Errorf("forecast: warmup %d outside (0, %d)", warmup, len(series))
	}
	if len(hs) == 0 {
		return nil, fmt.Errorf("forecast: no horizons")
	}
	if stride < 1 {
		stride = 1
	}
	// Origin i serves horizon h while its target i+h−1 is in the
	// series, so the shortest horizon bounds the pass.
	hmin := math.MaxInt
	for _, h := range hs {
		if err := checkInput(series, h); err != nil {
			return nil, err
		}
		hmin = min(hmin, h)
	}
	type sums struct {
		abs, sq float64
		n       int
	}
	acc := make([]sums, len(hs))
	r, rerr := rollerFor(p)
	for i := warmup; i+hmin-1 < len(series); i += stride {
		if rerr != nil {
			return nil, rerr
		}
		r.fit(series, i)
		for k, h := range hs {
			if i+h-1 >= len(series) {
				continue
			}
			pred, err := r.at(h)
			if err != nil {
				return nil, err
			}
			diff := pred - series[i+h-1]
			acc[k].abs += math.Abs(diff)
			acc[k].sq += diff * diff
			acc[k].n++
		}
	}
	out := make([]Errors, len(hs))
	for k, h := range hs {
		n := acc[k].n
		if n == 0 {
			return nil, fmt.Errorf("forecast: no forecast origins (len %d, warmup %d, h %d)", len(series), warmup, h)
		}
		out[k] = Errors{MAE: acc[k].abs / float64(n), RMSE: math.Sqrt(acc[k].sq / float64(n)), N: n}
	}
	return out, nil
}

// roller is a predictor's fit along a rolling-origin pass. fit refits
// on series[:i] for origins i that only increase, so it may carry
// state from the previous origin; at forecasts h ≥ 1 slots ahead from
// the current fit.
type roller interface {
	fit(series []float64, i int)
	at(h int) (float64, error)
}

// rollerFor returns the built-in predictors' incremental rollers, each
// calling the arithmetic its Predict calls, and a Predict-per-horizon
// roller for any other Predictor. A parameter error is returned only
// once the pass reaches an origin, as Predict would report it.
func rollerFor(p Predictor) (roller, error) {
	switch p := p.(type) {
	case Naive:
		return &pointRoller{fn: naiveFit}, nil
	case SMA:
		return &pointRoller{fn: func(h []float64) float64 { return smaFit(h, p.Window) }}, p.validate()
	case EWMA:
		return &ewmaRoller{alpha: p.Alpha}, p.validate()
	case AR1:
		return &ar1Roller{}, nil
	}
	return &predictRoller{p: p}, nil
}

// pointRoller holds a horizon-independent forecast refitted from the
// whole history at each origin.
type pointRoller struct {
	fn func(history []float64) float64
	v  float64
}

func (r *pointRoller) fit(series []float64, i int) { r.v = r.fn(series[:i]) }
func (r *pointRoller) at(int) (float64, error)     { return r.v, nil }

// ewmaRoller folds only the observations added since the previous
// origin into its running average.
type ewmaRoller struct {
	alpha, v float64
	next     int // series index the fold has reached; 0 before the first fit
}

func (r *ewmaRoller) fit(series []float64, i int) {
	if r.next == 0 {
		r.v, r.next = series[0], 1
	}
	r.v = ewmaFold(r.v, r.alpha, series[r.next:i])
	r.next = i
}

func (r *ewmaRoller) at(int) (float64, error) { return r.v, nil }

// ar1Roller keeps a running prefix sum — the additions stats.Mean
// makes — so only the autocorrelation pass is redone per origin.
type ar1Roller struct {
	sum  float64
	next int
	f    ar1Fit
}

func (r *ar1Roller) fit(series []float64, i int) {
	for _, x := range series[r.next:i] {
		r.sum += x
	}
	r.next = i
	r.f = fitAR1(series[:i], r.sum/float64(i))
}

func (r *ar1Roller) at(h int) (float64, error) { return r.f.at(h), nil }

// predictRoller refits any other Predictor through Predict, once per
// (origin, horizon).
type predictRoller struct {
	p       Predictor
	history []float64
}

func (r *predictRoller) fit(series []float64, i int) { r.history = series[:i] }
func (r *predictRoller) at(h int) (float64, error)   { return r.p.Predict(r.history, h) }
