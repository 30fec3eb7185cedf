package experiments

import (
	"fmt"
	"math"

	"repro/internal/instances"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Fig3Row is one panel of Figure 3: a two-month price history for one
// instance type, histogrammed and fitted.
type Fig3Row struct {
	Type instances.Type
	// MeanPrice and FloorPrice summarize the trace.
	MeanPrice, FloorPrice float64
	// ParetoBeta/ParetoAlpha/ParetoMSE: least-squares fit of the
	// exact Pareto-arrival equilibrium density (θ fixed at 0.02).
	ParetoBeta, ParetoAlpha, ParetoMSE float64
	// ExpBeta/ExpEta/ExpMSE: fit of the exponential-arrival density.
	ExpBeta, ExpEta, ExpMSE float64
	// PaperMSE: fit of the paper's literal (un-Jacobianed) Eq. 7
	// Pareto form with a free scale.
	PaperMSE float64
	// MixMSE: fit of the generative plateau+tail mixture itself —
	// the floor for what any fit of this family can achieve.
	MixMSE float64
	// DayNightP is the §4.3 two-sample KS p-value between daytime
	// and nighttime prices (thinned to decorrelate); the paper
	// reports p > 0.01, i.e. stationarity over the day.
	DayNightP float64
}

// Fig3Result is the Figure 3 reproduction.
type Fig3Result struct {
	Rows []Fig3Row
	// Bins is the histogram resolution used for the fits.
	Bins int
}

// fig3Bins is the histogram resolution; the fits operate on per-bin
// probability mass, so MSEs are dimensionless and comparable across
// instance types (see EXPERIMENTS.md for the normalization note).
const fig3Bins = 60

// Figure3 regenerates Fig. 3: synthetic two-month histories for the
// four types, histogram PDFs, Pareto and exponential fits of the
// §4 provider model, and the day/night stationarity check.
func Figure3(o Opts) (Fig3Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return Fig3Result{}, err
	}
	types := instances.Figure3Types()
	// The rows are independent fits, so they run on the worker pool,
	// each into its own slot; the first error in row order is
	// reported, whatever the schedule.
	rows := make([]Fig3Row, len(types))
	errs := make([]error, len(types))
	forEachRun(len(types), func(i int) error {
		rows[i], errs[i] = figure3Row(types[i], o.Seed+int64(i)*7777)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return Fig3Result{}, err
		}
	}
	return Fig3Result{Rows: rows, Bins: fig3Bins}, nil
}

func figure3Row(typ instances.Type, seed int64) (Fig3Row, error) {
	cal, err := trace.CalibrationFor(typ)
	if err != nil {
		return Fig3Row{}, err
	}
	// DwellSlots 1: §4.3 validates the i.i.d. equilibrium model, and
	// the marginal fit is cleanest on independent draws.
	tr, err := trace.Generate(typ, trace.GenOptions{Days: 61, Seed: seed, DwellSlots: 1})
	if err != nil {
		return Fig3Row{}, err
	}
	row, err := fitFig3Row(cal, tr)
	if err != nil {
		return Fig3Row{}, fmt.Errorf("experiments: fig3 %s: %w", typ, err)
	}
	return row, nil
}

func fitFig3Row(cal trace.Calibration, tr *trace.Trace) (Fig3Row, error) {
	pod := cal.Provider.POnDemand
	theta := cal.Provider.Theta
	floor := tr.Min()
	hist, err := stats.NewHistogram(tr.Prices, floor, tr.Max(), fig3Bins)
	if err != nil {
		return Fig3Row{}, err
	}
	// The fits operate on per-bin probability mass evaluated as CDF
	// differences across bin edges — the plateau density is nearly
	// singular at the floor, so midpoint-times-width quadrature would
	// misstate the first bin badly. Bin i is indexed by its center
	// for FitPDF's (x, value) pairing; each model converts the center
	// back to its edges.
	xs := hist.Centers()
	width := hist.BinWidth()
	mass := make([]float64, len(hist.Densities))
	for i, d := range hist.Densities {
		mass[i] = d * width
	}
	edges := func(center float64) (float64, float64) {
		return center - width/2, center + width/2
	}

	// h⁻¹ under candidate β (θ fixed): arrival volume at price x.
	lam := func(beta, x float64) float64 {
		den := pod - 2*x
		if den <= 0 {
			return math.Inf(1)
		}
		return theta * (beta/den - 1)
	}

	// binMass builds a per-bin-mass model from an arrival CDF: the
	// price CDF is F_Λ(h⁻¹(x)) (h is increasing), so bin mass is an
	// exact CDF difference.
	binMass := func(beta float64, cdf func(lambda float64) float64) func(float64) float64 {
		priceCDF := func(x float64) float64 {
			l := lam(beta, x)
			if math.IsInf(l, 1) {
				return 1
			}
			return cdf(l)
		}
		return func(center float64) float64 {
			lo, hi := edges(center)
			// The first bin's lower edge sits at the observed floor;
			// include the entire lower tail (the clamped atom).
			if lo <= floor {
				return priceCDF(hi)
			}
			return priceCDF(hi) - priceCDF(lo)
		}
	}

	// Exact Pareto-arrival equilibrium mass.
	paretoModel := func(p []float64) func(float64) float64 {
		beta, alpha := p[0], p[1]
		lamMin := lam(beta, floor)
		return binMass(beta, func(l float64) float64 {
			if l <= lamMin {
				return 0
			}
			return 1 - math.Pow(lamMin/l, alpha)
		})
	}
	paretoFit, err := stats.FitPDF(xs, mass, paretoModel,
		[]float64{cal.Provider.Beta, cal.TailAlpha},
		func(p []float64) bool { return p[0] > pod-2*floor && p[1] > 1.01 && p[1] < 500 })
	if err != nil {
		return Fig3Row{}, fmt.Errorf("pareto fit: %w", err)
	}

	// Exponential-arrival equilibrium mass (support from h(0); the
	// clamped atom at the floor lands in the first bin).
	expModel := func(p []float64) func(float64) float64 {
		beta, eta := p[0], p[1]
		return binMass(beta, func(l float64) float64 {
			if l <= 0 {
				return 0
			}
			return 1 - math.Exp(-l/eta)
		})
	}
	expFit, err := stats.FitPDF(xs, mass, expModel,
		[]float64{cal.Provider.Beta, cal.ExpEta},
		func(p []float64) bool { return p[0] > 0 && p[1] > 1e-9 })
	if err != nil {
		return Fig3Row{}, fmt.Errorf("exponential fit: %w", err)
	}

	// The paper's literal Eq. 7 (no Jacobian), with a free scale so
	// least squares is meaningful for the unnormalized form.
	paperModel := func(p []float64) func(float64) float64 {
		beta, alpha, scale := p[0], p[1], p[2]
		lamMin := lam(beta, floor)
		// The numerator depends only on the parameters: computed once
		// per candidate, not per bin, in the same operation order.
		num := scale * alpha * math.Pow(lamMin, alpha)
		return func(x float64) float64 {
			l := lam(beta, x)
			if math.IsInf(l, 1) || l < lamMin {
				return 0
			}
			// Center evaluation: the paper form is an unnormalized
			// density, so there is no CDF to difference.
			return num / math.Pow(l, alpha+1)
		}
	}
	paperFit, err := stats.FitPDF(xs, mass, paperModel,
		[]float64{cal.Provider.Beta, cal.TailAlpha, 1e-3},
		func(p []float64) bool { return p[0] > pod-2*floor && p[1] > 1.01 && p[1] < 500 && p[2] > 0 })
	if err != nil {
		return Fig3Row{}, fmt.Errorf("paper-form fit: %w", err)
	}

	// The generative mixture itself (β, θ known): the attainable
	// floor for this family.
	mixModel := func(p []float64) func(float64) float64 {
		a1, a2, w := p[0], p[1], p[2]
		beta := cal.Provider.Beta
		lamMin := lam(beta, floor)
		return binMass(beta, func(l float64) float64 {
			if l <= lamMin {
				return 0
			}
			return 1 - w*math.Pow(lamMin/l, a1) - (1-w)*math.Pow(lamMin/l, a2)
		})
	}
	mixFit, err := stats.FitPDF(xs, mass, mixModel,
		[]float64{cal.PlateauAlpha, cal.TailAlpha, cal.PlateauWeight},
		func(p []float64) bool {
			return p[0] > 1.01 && p[0] < 1000 && p[1] > 1.01 && p[1] < 1000 && p[2] > 0 && p[2] < 1
		})
	if err != nil {
		return Fig3Row{}, fmt.Errorf("mixture fit: %w", err)
	}

	// Day/night stationarity (§4.3).
	day, night := tr.DayNight()
	ks, err := stats.KSTwoSample(day, night)
	if err != nil {
		return Fig3Row{}, err
	}

	return Fig3Row{
		Type:        tr.Type,
		MeanPrice:   tr.Mean(),
		FloorPrice:  floor,
		ParetoBeta:  paretoFit.Params[0],
		ParetoAlpha: paretoFit.Params[1],
		ParetoMSE:   paretoFit.MSE,
		ExpBeta:     expFit.Params[0],
		ExpEta:      expFit.Params[1],
		ExpMSE:      expFit.MSE,
		PaperMSE:    paperFit.MSE,
		MixMSE:      mixFit.MSE,
		DayNightP:   ks.P,
	}, nil
}

// Render returns the result as an aligned text table.
func (r Fig3Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type), f4(row.FloorPrice), f4(row.MeanPrice),
			f2(row.ParetoBeta), f2(row.ParetoAlpha), fmt.Sprintf("%.2e", row.ParetoMSE),
			f2(row.ExpBeta), fmt.Sprintf("%.1e", row.ExpEta), fmt.Sprintf("%.2e", row.ExpMSE),
			fmt.Sprintf("%.2e", row.PaperMSE),
			fmt.Sprintf("%.2e", row.MixMSE),
			fmt.Sprintf("%.3f", row.DayNightP),
		}
	}
	return Table([]string{"type", "floor", "mean",
		"pareto-β", "pareto-α", "pareto-MSE",
		"exp-β", "exp-η", "exp-MSE", "paper-MSE", "mix-MSE", "KS-p"}, rows)
}
