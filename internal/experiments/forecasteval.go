package experiments

import (
	"fmt"

	"repro/internal/forecast"
	"repro/internal/instances"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ForecastRow is one (predictor, horizon) cell of the §5 forecasting
// check.
type ForecastRow struct {
	Predictor string
	// HorizonSlots is the look-ahead in 5-minute slots.
	HorizonSlots int
	// MAE and RMSE are rolling-origin errors.
	MAE, RMSE float64
	// RMSEOverSigma normalizes by the series' unconditional standard
	// deviation: ≈1 means the forecast carries no signal — the §5
	// justification for bidding from the distribution instead.
	RMSEOverSigma float64
}

// ForecastResult is the §5 forecasting evaluation.
type ForecastResult struct {
	Rows []ForecastRow
	// Sigma is the trace's unconditional standard deviation.
	Sigma float64
}

// ForecastEval quantifies §5's dismissal of time-series forecasting:
// rolling forecasts on a two-month r3.xlarge history at horizons of
// one slot, one hour, and half a day. Errors at long horizons reach
// the unconditional σ — predictions "far in advance" really are
// uninformative, so the strategies' distribution-based derivation is
// the right call.
func ForecastEval(o Opts) (ForecastResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return ForecastResult{}, err
	}
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 61, Seed: o.Seed})
	if err != nil {
		return ForecastResult{}, err
	}
	res := ForecastResult{Sigma: stats.StdDev(tr.Prices)}
	preds := []forecast.Predictor{
		forecast.Naive{},
		forecast.SMA{Window: 12},
		forecast.EWMA{Alpha: 0.2},
		forecast.AR1{},
	}
	horizons := []int{1, 12, 144}
	// One rolling pass per predictor serves every horizon; rows are
	// horizon-major.
	res.Rows = make([]ForecastRow, len(horizons)*len(preds))
	for j, p := range preds {
		es, err := forecast.EvaluateHorizons(p, tr.Prices, horizons, 2000, 17)
		if err != nil {
			return ForecastResult{}, err
		}
		for k, e := range es {
			res.Rows[k*len(preds)+j] = ForecastRow{
				Predictor:     p.Name(),
				HorizonSlots:  horizons[k],
				MAE:           e.MAE,
				RMSE:          e.RMSE,
				RMSEOverSigma: e.RMSE / res.Sigma,
			}
		}
	}
	return res, nil
}

// Render returns the evaluation as an aligned text table.
func (r ForecastResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Predictor,
			fmt.Sprintf("%d (%s)", row.HorizonSlots, horizonLabel(row.HorizonSlots)),
			fmt.Sprintf("%.5f", row.MAE),
			fmt.Sprintf("%.5f", row.RMSE),
			fmt.Sprintf("%.2f", row.RMSEOverSigma),
		}
	}
	return fmt.Sprintf("unconditional σ = %.5f\n%s", r.Sigma,
		Table([]string{"predictor", "horizon", "MAE", "RMSE", "RMSE/σ"}, rows))
}

func horizonLabel(slots int) string {
	switch {
	case slots < 12:
		return fmt.Sprintf("%dmin", slots*5)
	case slots%12 == 0:
		return fmt.Sprintf("%dh", slots/12)
	default:
		return fmt.Sprintf("%dmin", slots*5)
	}
}
