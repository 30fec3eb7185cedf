package experiments

import (
	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/obs/tsdb"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// Table3Row is one instance type's optimal bid prices for a one-hour
// job (the paper's Table 3).
type Table3Row struct {
	Type instances.Type
	// OnDemand is π̄, the cost baseline.
	OnDemand float64
	// OneTime is the Prop. 4 bid.
	OneTime float64
	// Persistent10 and Persistent30 are the Prop. 5 bids for
	// t_r = 10s and t_r = 30s.
	Persistent10, Persistent30 float64
	// BestOffline is p̂: the §7.1 retrospective baseline searched
	// over the last 10 hours of history.
	BestOffline float64
	// BestOfflineUnderbids reports whether p̂ sits below the one-time
	// optimum — the paper's observation that 10 hours of history can
	// underbid the future.
	BestOfflineUnderbids bool
}

// Table3Result is the Table 3 reproduction.
type Table3Result struct {
	Rows []Table3Row
	// Exec is the job length (1 hour in the paper).
	Exec timeslot.Hours
}

// Table3 computes the optimal bid prices of Table 3 from two-month
// synthetic histories for the five experiment types.
func Table3(o Opts) (Table3Result, error) {
	o, err := o.withDefaults()
	if err != nil {
		return Table3Result{}, err
	}
	res := Table3Result{Exec: 1}
	for i, typ := range instances.Table3Types() {
		// DwellSlots 1: the table's bids depend only on the price
		// marginal; independent draws give the cleanest two-month
		// ECDF.
		tr, err := trace.Generate(typ, trace.GenOptions{Days: 61, Seed: o.Seed + int64(i)*211, DwellSlots: 1, Metrics: o.Metrics, Trace: o.Trace})
		if err != nil {
			return Table3Result{}, err
		}
		ecdf, err := tr.ECDF(0)
		if err != nil {
			return Table3Result{}, err
		}
		m := core.Market{Price: ecdf, OnDemand: instances.MustLookup(typ).OnDemand}
		oneTime, err := m.OneTimeBid(core.Job{Exec: res.Exec})
		if err != nil {
			return Table3Result{}, err
		}
		p10, err := m.PersistentBid(core.Job{Exec: res.Exec, Recovery: timeslot.Seconds(10)})
		if err != nil {
			return Table3Result{}, err
		}
		p30, err := m.PersistentBid(core.Job{Exec: res.Exec, Recovery: timeslot.Seconds(30)})
		if err != nil {
			return Table3Result{}, err
		}
		hist, err := tr.LastHours(timeslot.Hours(10))
		if err != nil {
			return Table3Result{}, err
		}
		best, err := hist.BestOfflinePrice(res.Exec)
		if err != nil {
			return Table3Result{}, err
		}
		o.Metrics.Counter("experiments.table3.types").Inc()
		if o.TSDB != nil {
			// Table 3 has no slot loop — it is pure computation over a
			// generated history — so the per-type bids are recorded as
			// one sample each at the history's final slot, labelled by
			// market. This is the cross-type comparison series, not a
			// time walk.
			ls := tsdb.L("type", string(typ))
			slot := tr.Len() - 1
			o.TSDB.Append("table3.on_demand", ls, slot, m.OnDemand)
			o.TSDB.Append("table3.one_time_bid", ls, slot, oneTime.Price)
			o.TSDB.Append("table3.persistent_bid_10s", ls, slot, p10.Price)
			o.TSDB.Append("table3.persistent_bid_30s", ls, slot, p30.Price)
			o.TSDB.Append("table3.best_offline", ls, slot, best)
		}
		res.Rows = append(res.Rows, Table3Row{
			Type:                 typ,
			OnDemand:             m.OnDemand,
			OneTime:              oneTime.Price,
			Persistent10:         p10.Price,
			Persistent30:         p30.Price,
			BestOffline:          best,
			BestOfflineUnderbids: best < oneTime.Price,
		})
	}
	return res, nil
}

// Render returns the result as an aligned text table.
func (r Table3Result) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		under := "no"
		if row.BestOfflineUnderbids {
			under = "yes"
		}
		rows[i] = []string{
			string(row.Type), f4(row.OnDemand), f4(row.OneTime),
			f4(row.Persistent10), f4(row.Persistent30), f4(row.BestOffline), under,
		}
	}
	return Table([]string{"type", "on-demand", "one-time", "persistent-10s", "persistent-30s", "best-offline", "underbids"}, rows)
}
