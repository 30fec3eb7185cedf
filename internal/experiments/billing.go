package experiments

import (
	"fmt"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// BillingRow compares one strategy's measured cost under the paper's
// per-slot billing model and Amazon's real hourly rules (rate locked
// at the top of the hour, provider-terminated partial hours free).
type BillingRow struct {
	Strategy string
	// PerSlotCost and HourlyCost are mean measured costs over Runs.
	PerSlotCost, HourlyCost float64
	// Ratio is HourlyCost / PerSlotCost.
	Ratio float64
	Runs  int
}

// BillingResult is the billing-model ablation.
type BillingResult struct{ Rows []BillingRow }

// AblationBilling quantifies how far the paper's per-slot cost model
// (the continuous limit behind Eq. 9/13) sits from Amazon's actual
// 2014 billing: identical traces, identical bids, different meters.
// The refund rule can only lower spot bills, so hourly/per-slot ≤ 1
// for spot strategies (exactly 1 on interruption-free whole hours).
func AblationBilling(o Opts) (BillingResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return BillingResult{}, err
	}
	var res BillingResult
	for _, strategy := range []string{"one-time", "persistent-30", "on-demand"} {
		var perSlot, hourly float64
		var n int
		for run := 0; run < o.Runs; run++ {
			seed := o.Seed + int64(run)*7919
			tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: o.Days, Seed: seed})
			if err != nil {
				return BillingResult{}, err
			}
			a, err := runBilled(tr, strategy, cloud.PerSlot)
			if err != nil {
				return BillingResult{}, err
			}
			b, err := runBilled(tr, strategy, cloud.Hourly)
			if err != nil {
				return BillingResult{}, err
			}
			if !a.Outcome.Completed || !b.Outcome.Completed {
				continue // identical traces: both or neither, typically
			}
			perSlot += a.Outcome.Cost
			hourly += b.Outcome.Cost
			n++
		}
		if n == 0 {
			return BillingResult{}, fmt.Errorf("experiments: no completed billing pairs for %s", strategy)
		}
		row := BillingRow{
			Strategy:    strategy,
			PerSlotCost: perSlot / float64(n),
			HourlyCost:  hourly / float64(n),
			Runs:        n,
		}
		if row.PerSlotCost > 0 {
			row.Ratio = row.HourlyCost / row.PerSlotCost
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runBilled runs one 1-hour job on a fresh region with the given
// billing mode.
func runBilled(tr *trace.Trace, strategy string, mode cloud.BillingMode) (client.Report, error) {
	region, err := cloudRegion(tr)
	if err != nil {
		return client.Report{}, err
	}
	if err := region.SetBilling(mode); err != nil {
		return client.Report{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, err
	}
	if err := cl.Skip(historySlots); err != nil {
		return client.Report{}, err
	}
	spec := job.Spec{ID: "bill", Type: tr.Type, Exec: 1}
	switch strategy {
	case "one-time":
		return cl.RunOneTime(spec)
	case "persistent-30":
		spec.Recovery = timeslot.Seconds(30)
		return cl.RunPersistent(spec)
	case "on-demand":
		return cl.RunOnDemand(spec)
	default:
		return client.Report{}, fmt.Errorf("experiments: unknown strategy %q", strategy)
	}
}

// Render returns the ablation as an aligned text table.
func (r BillingResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Strategy, f4(row.PerSlotCost), f4(row.HourlyCost),
			fmt.Sprintf("%.3f", row.Ratio), fmt.Sprintf("%d", row.Runs),
		}
	}
	return Table([]string{"strategy", "per-slot cost", "hourly cost", "hourly/per-slot", "runs"}, rows)
}
