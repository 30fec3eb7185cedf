package trace

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/arrivals"
	"repro/internal/instances"
	"repro/internal/market"
	"repro/internal/obs"
	"repro/internal/timeslot"
)

// oracleGenerate is the equilibrium-model generator Generate replaced:
// price every slot with market.EquilibriumPrices, then walk the dwell
// draws and overwrite every kept slot with the previous level. It
// survives only here, as the oracle for dwellPrices' lazy regime
// evaluation. Options must already carry their defaults.
func oracleGenerate(c Calibration, opt GenOptions) ([]float64, int64, error) {
	grid := timeslot.NewGrid(timeslot.DefaultSlot)
	n := opt.Days * int(grid.SlotsPerHour()) * 24
	par, err := c.ArrivalDist()
	if err != nil {
		return nil, 0, err
	}
	var proc arrivals.Process = arrivals.NewIID(par)
	if opt.DiurnalAmplitude > 0 {
		proc, err = arrivals.NewDiurnal(proc, opt.DiurnalAmplitude, int(grid.SlotsPerHour())*24)
		if err != nil {
			return nil, 0, err
		}
	}
	r := rand.New(rand.NewSource(opt.Seed))
	prices, err := market.EquilibriumPrices(c.Provider, proc, n, r)
	if err != nil {
		return nil, 0, err
	}
	var switches int64
	if opt.DwellSlots > 1 {
		switchP := 1 / float64(opt.DwellSlots)
		cur := prices[0]
		for i := 1; i < n; i++ {
			if r.Float64() >= switchP {
				prices[i] = cur
			} else {
				cur = prices[i]
				switches++
			}
		}
	}
	return prices, switches, nil
}

// TestGenerateMatchesOracle holds Generate's lazy regime evaluation to
// the price-every-slot generator bit for bit — every calibrated type,
// several seeds, the i.i.d. grain and three dwell grains, with and
// without diurnal modulation — and checks the replayed switch counter.
func TestGenerateMatchesOracle(t *testing.T) {
	for _, spec := range instances.All() {
		c, err := CalibrationFor(spec.Type)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 7, 9029} {
			for _, dwell := range []int{1, 2, 18, 72} {
				for _, amp := range []float64{0, 0.3} {
					opt := GenOptions{Days: 5, Seed: seed, DwellSlots: dwell, DiurnalAmplitude: amp}
					checkOracle(t, c, opt)
				}
			}
		}
	}
	// One paper-length trace per grain, at the default dwell too.
	c, err := CalibrationFor(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	for _, dwell := range []int{1, 18, 72} {
		checkOracle(t, c, GenOptions{Days: 61, Seed: 3, DwellSlots: dwell})
	}
}

func checkOracle(t *testing.T, c Calibration, opt GenOptions) {
	t.Helper()
	want, wantSwitches, err := oracleGenerate(c, opt)
	if err != nil {
		t.Fatal(err)
	}
	met := obs.New()
	opt.Metrics = met
	tr, err := c.Generate(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Prices) != len(want) {
		t.Fatalf("%s %+v: %d slots, oracle %d", c.Type, opt, len(tr.Prices), len(want))
	}
	for i := range want {
		if math.Float64bits(tr.Prices[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s seed %d dwell %d diurnal %v: slot %d = %v, oracle %v",
				c.Type, opt.Seed, opt.DwellSlots, opt.DiurnalAmplitude, i, tr.Prices[i], want[i])
		}
	}
	if got := met.Counter("trace.dwell_switches").Value(); got != wantSwitches {
		t.Errorf("%s seed %d dwell %d: %d switches, oracle %d", c.Type, opt.Seed, opt.DwellSlots, got, wantSwitches)
	}
}
