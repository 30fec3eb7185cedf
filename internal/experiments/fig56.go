package experiments

import (
	"errors"
	"fmt"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
)

// singleRun executes one single-instance job under one strategy on a
// fresh region, submitted offset slots into the day after a two-month
// history window.
func singleRun(typ instances.Type, strategy string, seed int64, offset, days int) (client.Report, error) {
	region, err := regionFor([]instances.Type{typ}, seed, days)
	if err != nil {
		return client.Report{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, err
	}
	if err := cl.Skip(historySlots + offset); err != nil {
		return client.Report{}, err
	}
	spec := job.Spec{ID: "exp-job", Type: typ, Exec: 1}
	switch strategy {
	case "one-time":
		return cl.RunOneTime(spec)
	case "persistent-10":
		spec.Recovery = timeslot.Seconds(10)
		return cl.RunPersistent(spec)
	case "persistent-30":
		spec.Recovery = timeslot.Seconds(30)
		return cl.RunPersistent(spec)
	case "percentile-90":
		spec.Recovery = timeslot.Seconds(30)
		return cl.RunPercentile(spec, 90, cloud.Persistent)
	case "best-offline":
		hist, err := region.PriceHistory(typ, timeslot.Hours(10))
		if err != nil {
			return client.Report{}, err
		}
		best, err := hist.BestOfflinePrice(1)
		if err != nil {
			return client.Report{}, err
		}
		return cl.RunFixedBid("best-offline", spec, best, cloud.OneTime)
	case "on-demand":
		return cl.RunOnDemand(spec)
	default:
		return client.Report{}, fmt.Errorf("experiments: unknown strategy %q", strategy)
	}
}

// Fig5Row is one instance type of Figure 5: one-time spot vs
// on-demand cost for a one-hour job, averaged over Runs repetitions.
type Fig5Row struct {
	Type instances.Type
	// AnalyticCost is the model's expected cost at the Prop. 4 bid.
	AnalyticCost float64
	// MeasuredCost is the mean billed cost across completed runs.
	MeasuredCost float64
	// OnDemandCost is the π̄ baseline for the same job.
	OnDemandCost float64
	// Savings is 1 − measured/on-demand (the paper: up to 91%).
	Savings float64
	// Interrupted counts one-time runs that were out-bid (the paper
	// observed none).
	Interrupted int
	// BestOfflineCost is the mean cost under the retrospective
	// baseline's bid, counting only its completed runs.
	BestOfflineCost float64
	// BestOfflineFailed counts baseline runs terminated early — the
	// §7.1 observation that 10 hours of history underbids the future.
	BestOfflineFailed int
	// Runs is the repetition count.
	Runs int
}

// Fig5Result is the Figure 5 reproduction.
type Fig5Result struct{ Rows []Fig5Row }

// Figure5 reruns the §7.1 one-time experiments: ten one-hour jobs per
// type at random times of day, billed on the simulated cloud.
func Figure5(o Opts) (Fig5Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return Fig5Result{}, err
	}
	types := instances.Table3Types()
	// Repetitions are independent (private regions); every (type, run)
	// pair goes through one shared worker pool, with aggregation in
	// cell order afterwards.
	type runResult struct {
		rep, bo client.Report
	}
	results := make([][]runResult, len(types))
	cellOffs := make([][]int, len(types))
	for ti := range types {
		results[ti] = make([]runResult, o.Runs)
		cellOffs[ti] = offsets(o.Runs, o.Seed+int64(ti))
	}
	err = forEachCellRun(len(types), o.Runs, nil, func(ti, run int) error {
		typ := types[ti]
		seed := o.Seed + int64(ti)*1013 + int64(run)*7919
		rep, err := singleRun(typ, "one-time", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		bo, err := singleRun(typ, "best-offline", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		results[ti][run] = runResult{rep: rep, bo: bo}
		return nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	var res Fig5Result
	for ti, typ := range types {
		row := Fig5Row{Type: typ, Runs: o.Runs}
		var measured, analytic, offline float64
		var completed, offlineDone int
		for _, r := range results[ti] {
			if r.rep.Outcome.Completed {
				completed++
				measured += r.rep.Outcome.Cost
				analytic += r.rep.Analytic.ExpectedCost
			} else {
				row.Interrupted++
			}
			if r.bo.Outcome.Completed {
				offlineDone++
				offline += r.bo.Outcome.Cost
			} else {
				row.BestOfflineFailed++
			}
		}
		if completed == 0 {
			return Fig5Result{}, errors.New("experiments: every one-time run was interrupted")
		}
		spec := instances.MustLookup(typ)
		row.MeasuredCost = measured / float64(completed)
		row.AnalyticCost = analytic / float64(completed)
		row.OnDemandCost = spec.OnDemand // one-hour job
		row.Savings = 1 - row.MeasuredCost/row.OnDemandCost
		if offlineDone > 0 {
			row.BestOfflineCost = offline / float64(offlineDone)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render returns the result as an aligned text table.
func (r Fig5Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type), f4(row.AnalyticCost), f4(row.MeasuredCost),
			f4(row.OnDemandCost), pct(row.Savings),
			fmt.Sprintf("%d/%d", row.Interrupted, row.Runs),
			f4(row.BestOfflineCost),
			fmt.Sprintf("%d/%d", row.BestOfflineFailed, row.Runs),
		}
	}
	return Table([]string{"type", "analytic", "measured", "on-demand", "savings", "interrupted", "best-offline", "bo-failed"}, rows)
}

// citizenReport pairs a report with its validity for the paired
// aggregation.
type citizenReport struct {
	client.Report
	ok bool
}

// Fig6Row is one (type, strategy) cell of Figure 6: percentage
// differences of a persistent-style strategy versus the one-time
// baseline on the same traces.
type Fig6Row struct {
	Type     instances.Type
	Strategy string
	// BidPrice is the strategy's mean bid.
	BidPrice float64
	// PriceDiff is the mean % difference in price paid per running
	// hour (Fig. 6a; negative = cheaper per hour).
	PriceDiff float64
	// CompletionDiff is the mean % difference in completion time
	// (Fig. 6b; positive = slower).
	CompletionDiff float64
	// CostDiff is the mean % difference in total job cost (Fig. 6c;
	// negative = cheaper).
	CostDiff float64
	// Interruptions is the mean interruption count per run.
	Interruptions float64
	// Runs counts the paired repetitions that completed.
	Runs int
}

// Fig6Result is the Figure 6 reproduction.
type Fig6Result struct{ Rows []Fig6Row }

// fig6Strategies are the Fig. 6 comparison arms.
var fig6Strategies = []string{"persistent-10", "persistent-30", "percentile-90"}

// Figure6 reruns the §7.1 persistent-vs-one-time comparison: for each
// type and strategy, paired runs on identical traces, reporting the
// percentage differences of Fig. 6(a–c).
func Figure6(o Opts) (Fig6Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return Fig6Result{}, err
	}
	types := instances.Table3Types()
	type pair struct {
		base citizenReport
		arms map[string]citizenReport
	}
	pairs := make([][]pair, len(types))
	cellOffs := make([][]int, len(types))
	for ti := range types {
		pairs[ti] = make([]pair, o.Runs)
		cellOffs[ti] = offsets(o.Runs, o.Seed+int64(ti))
	}
	err = forEachCellRun(len(types), o.Runs, nil, func(ti, run int) error {
		typ := types[ti]
		seed := o.Seed + int64(ti)*1013 + int64(run)*7919
		base, err := singleRun(typ, "one-time", seed, cellOffs[ti][run], o.Days)
		if err != nil {
			return err
		}
		p := pair{base: citizenReport{base, true}, arms: make(map[string]citizenReport, len(fig6Strategies))}
		if !base.Outcome.Completed {
			p.base.ok = false // the paper's baseline never failed; skip the pair
			pairs[ti][run] = p
			return nil
		}
		for _, s := range fig6Strategies {
			rep, err := singleRun(typ, s, seed, cellOffs[ti][run], o.Days)
			if err != nil {
				return err
			}
			p.arms[s] = citizenReport{rep, rep.Outcome.Completed}
		}
		pairs[ti][run] = p
		return nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	var res Fig6Result
	for ti, typ := range types {
		type acc struct {
			bid, price, compl, cost, inter float64
			n                              int
		}
		accs := make(map[string]*acc, len(fig6Strategies))
		for _, s := range fig6Strategies {
			accs[s] = &acc{}
		}
		for _, p := range pairs[ti] {
			if !p.base.ok {
				continue
			}
			base := p.base.Report
			for _, s := range fig6Strategies {
				arm, ok := p.arms[s]
				if !ok || !arm.ok {
					continue
				}
				rep := arm.Report
				a := accs[s]
				a.n++
				a.bid += rep.BidPrice
				a.price += rep.Outcome.PricePerRunHour/base.Outcome.PricePerRunHour - 1
				a.compl += float64(rep.Outcome.Completion)/float64(base.Outcome.Completion) - 1
				a.cost += rep.Outcome.Cost/base.Outcome.Cost - 1
				a.inter += float64(rep.Outcome.Interruptions)
			}
		}
		for _, s := range fig6Strategies {
			a := accs[s]
			if a.n == 0 {
				return Fig6Result{}, fmt.Errorf("experiments: no completed pairs for %s/%s", typ, s)
			}
			n := float64(a.n)
			res.Rows = append(res.Rows, Fig6Row{
				Type:           typ,
				Strategy:       s,
				BidPrice:       a.bid / n,
				PriceDiff:      a.price / n,
				CompletionDiff: a.compl / n,
				CostDiff:       a.cost / n,
				Interruptions:  a.inter / n,
				Runs:           a.n,
			})
		}
	}
	return res, nil
}

// Row returns the (type, strategy) row, or false.
func (r Fig6Result) Row(typ instances.Type, strategy string) (Fig6Row, bool) {
	for _, row := range r.Rows {
		if row.Type == typ && row.Strategy == strategy {
			return row, true
		}
	}
	return Fig6Row{}, false
}

// Render returns the result as an aligned text table.
func (r Fig6Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			string(row.Type), row.Strategy, f4(row.BidPrice),
			pct(row.PriceDiff), pct(row.CompletionDiff), pct(row.CostDiff),
			f2(row.Interruptions), fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"type", "strategy", "bid", "Δprice/h", "Δcompletion", "Δcost", "interruptions", "runs"}, rows)
}
