package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
	"repro/internal/invariant"
	"repro/internal/serve"
)

// goldenOpts are the options the committed experiment goldens were
// rendered at (internal/experiments/golden_test.go).
func goldenOpts() experiments.Opts { return experiments.Opts{Seed: 7, Runs: 2, Days: 63} }

// goldenDir holds the committed renderings, relative to the repository
// root the benchmark runs from.
var goldenDir = filepath.Join("internal", "experiments", "testdata")

// checkGoldens renders Table 3 and Figures 5–6 at the golden options
// and compares each byte for byte with its committed golden.
func checkGoldens() error {
	t3, err := experiments.Table3(goldenOpts())
	if err != nil {
		return fmt.Errorf("table3 at golden options: %w", err)
	}
	f5, err := experiments.Figure5(goldenOpts())
	if err != nil {
		return fmt.Errorf("figure5 at golden options: %w", err)
	}
	f6, err := experiments.Figure6(goldenOpts())
	if err != nil {
		return fmt.Errorf("figure6 at golden options: %w", err)
	}
	for _, g := range []struct{ name, got string }{
		{"table3", t3.Render()}, {"figure5", f5.Render()}, {"figure6", f6.Render()},
	} {
		want, err := os.ReadFile(filepath.Join(goldenDir, g.name+".golden"))
		if err != nil {
			return err
		}
		if err := sameRendering(g.name, want, []byte(g.got)); err != nil {
			return err
		}
	}
	return nil
}

// sameRendering reports the first differing line between a golden and
// a fresh rendering.
func sameRendering(name string, want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Errorf("%s differs from its golden at line %d: want %q, got %q", name, i+1, w, g)
		}
	}
	return fmt.Errorf("%s differs from its golden", name)
}

// checkFigure5 holds every Fig. 5 row to the paper's headline: the
// measured one-time spot cost is below the on-demand cost.
func checkFigure5(r experiments.Fig5Result) error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("figure5 has no rows")
	}
	for _, row := range r.Rows {
		if !(row.MeasuredCost > 0 && row.MeasuredCost < row.OnDemandCost) {
			return fmt.Errorf("figure5 %s: measured spot cost %v not in (0, on-demand %v)",
				row.Type, row.MeasuredCost, row.OnDemandCost)
		}
	}
	return nil
}

// checkTable3 holds every Table 3 bid inside (0, π̄].
func checkTable3(r experiments.Table3Result) error {
	if len(r.Rows) == 0 {
		return fmt.Errorf("table3 has no rows")
	}
	for _, row := range r.Rows {
		for _, b := range []float64{row.OneTime, row.Persistent10, row.Persistent30} {
			if !(b > 0 && b <= row.OnDemand) {
				return fmt.Errorf("table3 %s: bid %v outside (0, on-demand %v]", row.Type, b, row.OnDemand)
			}
		}
	}
	return nil
}

// checkSchedule fails a resilience schedule that errored or broke an
// invariant.
func checkSchedule(r invariant.ScheduleResult) error {
	if r.Err != "" {
		return fmt.Errorf("schedule %d errored: %s", r.Index, r.Err)
	}
	if len(r.Violations) > 0 {
		return fmt.Errorf("schedule %d: %d invariant violation(s), first: %s", r.Index, len(r.Violations), r.Violations[0])
	}
	return nil
}

// quoteBounds are the limits every served bid must respect: the bid
// floor π̲ and the on-demand price π̄.
type quoteBounds struct{ floor, ceiling float64 }

// checkQuote classifies one /v1/quote reply: 200 must decode to a
// fresh or stale quote with a bid in [π̲, π̄]; 422 (an Eq. 14 refusal)
// is a correct answer; every other status is a failure. It returns the
// decoded response of a 200.
func checkQuote(status int, body []byte, b quoteBounds) (serve.QuoteResponse, error) {
	var resp serve.QuoteResponse
	switch status {
	case 200:
	case 422:
		return resp, nil
	default:
		return resp, fmt.Errorf("quote: HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return resp, fmt.Errorf("quote: undecodable 200 body: %v", err)
	}
	if resp.Tier != serve.TierFresh.String() && resp.Tier != serve.TierStale.String() {
		return resp, fmt.Errorf("quote: tier %q is neither fresh nor stale", resp.Tier)
	}
	p := resp.Quote.Price
	if !resp.Quote.Feasible || math.IsNaN(p) || p < b.floor || p > b.ceiling {
		return resp, fmt.Errorf("quote: bid %v (feasible=%v) outside [%v, %v]", p, resp.Quote.Feasible, b.floor, b.ceiling)
	}
	return resp, nil
}
