package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/arrivals"
	"repro/internal/instances"
	"repro/internal/market"
	"repro/internal/stats"
	"repro/internal/trace"
)

// StabilityRow validates Prop. 1/2 for one instance type's market:
// the full queue dynamics stay bounded, hover near the equilibrium
// load, and produce prices whose mean matches the i.i.d. equilibrium
// model.
type StabilityRow struct {
	Type instances.Type
	// MeanLoad and MaxLoad summarize the simulated queue L(t).
	MeanLoad, MaxLoad float64
	// EquilibriumLoad is Eq. 21's balance point at the mean arrival
	// volume.
	EquilibriumLoad float64
	// Threshold is the load beyond which the quadratic drift bound
	// is negative (Prop. 1); bounded queues stay mostly below it.
	Threshold float64
	// FracAboveThreshold is the fraction of slots with
	// L(t) > Threshold (small for a stable queue).
	FracAboveThreshold float64
	// SimPriceMean and EqPriceMean compare the full-dynamics price
	// mean with the analytic equilibrium mean.
	SimPriceMean, EqPriceMean float64
	// SimAutocorr1 and EqAutocorr1 are lag-1 price autocorrelations:
	// the queue gives the full dynamics memory, the equilibrium
	// model is white (§8's temporal-correlation discussion).
	SimAutocorr1, EqAutocorr1 float64
}

// StabilityResult is the Prop. 1/2 validation.
type StabilityResult struct {
	Rows []StabilityRow
	// Slots is the simulated horizon per type.
	Slots int
}

// Stability simulates the full queue dynamics (Fig. 2) per type and
// checks the boundedness and equilibrium claims of §4.2.
func Stability(o Opts) (StabilityResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return StabilityResult{}, err
	}
	const slots = 20000
	res := StabilityResult{Slots: slots}
	for i, typ := range instances.Figure3Types() {
		cal, err := trace.CalibrationFor(typ)
		if err != nil {
			return StabilityResult{}, err
		}
		arr, err := cal.ArrivalDist()
		if err != nil {
			return StabilityResult{}, err
		}
		sim := market.Simulator{Provider: cal.Provider, Arrivals: arrivals.NewIID(arr), Warmup: 2000}
		out, err := sim.Run(slots, rand.New(rand.NewSource(o.Seed+int64(i)*43)))
		if err != nil {
			return StabilityResult{}, err
		}
		eq, err := cal.PriceDist()
		if err != nil {
			return StabilityResult{}, err
		}
		lambda, sigma := arr.Mean(), arr.Var()
		thr := cal.Provider.StabilityThreshold(lambda, sigma)
		var above int
		maxLoad := 0.0
		for _, l := range out.Loads {
			if l > thr {
				above++
			}
			if l > maxLoad {
				maxLoad = l
			}
		}
		// The i.i.d. equilibrium price series for the autocorrelation
		// comparison.
		eqPrices, err := market.EquilibriumPrices(cal.Provider, arrivals.NewIID(arr), slots,
			rand.New(rand.NewSource(o.Seed+int64(i)*43+1)))
		if err != nil {
			return StabilityResult{}, err
		}
		res.Rows = append(res.Rows, StabilityRow{
			Type:               typ,
			MeanLoad:           stats.Mean(out.Loads),
			MaxLoad:            maxLoad,
			EquilibriumLoad:    cal.Provider.EquilibriumLoad(lambda),
			Threshold:          thr,
			FracAboveThreshold: float64(above) / float64(len(out.Loads)),
			SimPriceMean:       stats.Mean(out.Prices),
			EqPriceMean:        eq.Mean(),
			SimAutocorr1:       stats.Autocorrelation(out.Prices, []int{1})[0],
			EqAutocorr1:        stats.Autocorrelation(eqPrices, []int{1})[0],
		})
	}
	return res, nil
}

// Render returns the result as an aligned text table.
func (r StabilityResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type),
			f2(row.MeanLoad), f2(row.MaxLoad), f2(row.EquilibriumLoad), f2(row.Threshold),
			fmt.Sprintf("%.3f", row.FracAboveThreshold),
			f4(row.SimPriceMean), f4(row.EqPriceMean),
			fmt.Sprintf("%.3f", row.SimAutocorr1), fmt.Sprintf("%.3f", row.EqAutocorr1),
		}
	}
	return Table([]string{"type", "mean-L", "max-L", "eq-L", "threshold", "frac>thr", "sim-π̄", "eq-π̄", "sim-ac1", "eq-ac1"}, rows)
}
