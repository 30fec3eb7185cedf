package experiments

import (
	"fmt"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
)

// chaosRates is the fault-intensity sweep: the chaos.Uniform knob from
// fault-free to a very bad day on EC2.
var chaosRates = []float64{0, 0.02, 0.05, 0.10}

// chaosStrategies are the bidding strategies stressed by the sweep.
var chaosStrategies = []string{"one-time", "persistent-30", "percentile-90"}

// ChaosRow is one (strategy, fault-rate) cell: how much of the
// paper's ≈90% saving survives a degraded market interface.
type ChaosRow struct {
	Strategy string
	// Rate is the chaos.Uniform fault intensity.
	Rate float64
	// Completed counts runs that finished all their work (on spot or
	// after an on-demand fallback); Errored counts runs the client
	// could not even start (e.g. no price history and no cached ECDF).
	Completed, Errored, Runs int
	// MeanCost and MeanCompletion average over completed runs.
	MeanCost       float64
	MeanCompletion timeslot.Hours
	// CostDegradation and CompletionDegradation compare against the
	// same strategy's fault-free (rate 0) row: +0.25 = 25% worse.
	CostDegradation, CompletionDegradation float64
	// FellBack counts runs that degraded to on-demand; StaleRuns
	// counts runs priced from a stale ECDF; Interruptions and
	// CheckpointFailures sum over completed runs.
	FellBack, StaleRuns, Interruptions, CheckpointFailures int
	// Faults is the total number of injected faults across all runs.
	Faults int
}

// ChaosResult is the degradation table of the chaos experiment.
type ChaosResult struct{ Rows []ChaosRow }

// chaosRun executes one job under one strategy on a fresh chaos-armed
// region. Runs are deterministic per seed: region trace, submission
// offset, and the entire fault sequence all derive from it.
func chaosRun(typ instances.Type, strategy string, rate float64, seed int64, offset, days int, met *obs.Registry, rec *event.Recorder) (client.Report, chaos.Stats, error) {
	region, err := regionFor([]instances.Type{typ}, seed, days)
	if err != nil {
		return client.Report{}, chaos.Stats{}, err
	}
	cl, err := client.New(region)
	if err != nil {
		return client.Report{}, chaos.Stats{}, err
	}
	if met != nil {
		cl.SetMetrics(met)
	}
	if rec != nil {
		cl.SetTrace(rec)
	}
	inj, err := chaos.New(chaos.Uniform(rate, seed*31+1))
	if err != nil {
		return client.Report{}, chaos.Stats{}, err
	}
	if err := inj.Arm(region, cl.Volume); err != nil {
		return client.Report{}, chaos.Stats{}, err
	}
	if err := cl.Skip(historySlots + offset); err != nil {
		return client.Report{}, chaos.Stats{}, err
	}
	spec := job.Spec{ID: "chaos-job", Type: typ, Exec: 1, Recovery: timeslot.Seconds(30)}
	var rep client.Report
	switch strategy {
	case "one-time":
		rep, err = cl.RunOneTime(spec)
	case "persistent-30":
		rep, err = cl.RunPersistent(spec)
	case "percentile-90":
		rep, err = cl.RunPercentile(spec, 90, cloud.Persistent)
	default:
		return client.Report{}, chaos.Stats{}, fmt.Errorf("experiments: unknown chaos strategy %q", strategy)
	}
	return rep, inj.Stats(), err
}

// ChaosSweep reruns the §7.1 single-job experiment under injected
// faults: transient API errors, degraded price telemetry, capacity
// outages, delayed out-bid notices, and lost checkpoints, at
// increasing intensity. It reports how cost and completion time
// degrade versus the fault-free baseline for each strategy — the
// robustness question the paper could not ask of real EC2.
func ChaosSweep(o Opts) (ChaosResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return ChaosResult{}, err
	}
	typ := instances.R3XLarge

	// Flatten the rate×strategy grid so every (cell, run) pair shares
	// one worker pool instead of a barrier per cell.
	type chaosCell struct {
		rate     float64
		si       int
		strategy string
	}
	var cells []chaosCell
	for _, rate := range chaosRates {
		for si, strategy := range chaosStrategies {
			cells = append(cells, chaosCell{rate: rate, si: si, strategy: strategy})
		}
	}
	type runResult struct {
		rep    client.Report
		faults chaos.Stats
		err    error
	}
	results := make([][]runResult, len(cells))
	// Each parallel repetition records into its own registry; the
	// snapshots merge into o.Metrics in cell-major run order below,
	// keeping the aggregate independent of worker scheduling.
	var regs [][]*obs.Registry
	if o.Metrics != nil {
		regs = make([][]*obs.Registry, len(cells))
	}
	cellOffs := make([][]int, len(cells))
	for ci, cell := range cells {
		results[ci] = make([]runResult, o.Runs)
		cellOffs[ci] = offsets(o.Runs, o.Seed+int64(cell.si))
		if regs != nil {
			regs[ci] = make([]*obs.Registry, o.Runs)
			for run := range regs[ci] {
				regs[ci][run] = obs.New()
			}
		}
	}
	// Run 0 of every cell feeds the shared recorder, serialized in
	// cell order by the scheduler — see Opts.Trace's determinism note.
	var traced func(int) bool
	if o.Trace != nil {
		traced = func(int) bool { return true }
	}
	err = forEachCellRun(len(cells), o.Runs, traced, func(ci, run int) error {
		cell := cells[ci]
		seed := o.Seed + int64(cell.si)*2003 + int64(run)*7919
		var met *obs.Registry
		if regs != nil {
			met = regs[ci][run]
		}
		var rec *event.Recorder
		if run == 0 {
			rec = o.Trace
		}
		rep, st, err := chaosRun(typ, cell.strategy, cell.rate, seed, cellOffs[ci][run], o.Days, met, rec)
		// A client that cannot start its job at all is a data
		// point, not an experiment failure.
		results[ci][run] = runResult{rep: rep, faults: st, err: err}
		return nil
	})
	if err != nil {
		return ChaosResult{}, err
	}

	var res ChaosResult
	baseline := map[string]ChaosRow{} // strategy → rate-0 row
	for ci, cell := range cells {
		row := ChaosRow{Strategy: cell.strategy, Rate: cell.rate, Runs: o.Runs}
		if regs != nil {
			for _, reg := range regs[ci] {
				if err := o.Metrics.Merge(reg.Snapshot()); err != nil {
					return ChaosResult{}, fmt.Errorf("experiments: merging chaos run metrics: %w", err)
				}
			}
		}
		var cost, compl float64
		for _, r := range results[ci] {
			row.Faults += r.faults.Total()
			if r.err != nil {
				row.Errored++
				continue
			}
			if r.rep.Telemetry.FellBackOnDemand {
				row.FellBack++
			}
			if r.rep.Telemetry.Stale {
				row.StaleRuns++
			}
			if !r.rep.Outcome.Completed {
				continue
			}
			row.Completed++
			cost += r.rep.Outcome.Cost
			compl += float64(r.rep.Outcome.Completion)
			row.Interruptions += r.rep.Outcome.Interruptions
			row.CheckpointFailures += r.rep.Outcome.CheckpointFailures
		}
		if row.Completed > 0 {
			row.MeanCost = cost / float64(row.Completed)
			row.MeanCompletion = timeslot.Hours(compl / float64(row.Completed))
		}
		o.Metrics.Counter("experiments.chaos.runs").Add(int64(row.Runs))
		o.Metrics.Counter("experiments.chaos.completed").Add(int64(row.Completed))
		o.Metrics.Counter("experiments.chaos.errored").Add(int64(row.Errored))
		if cell.rate == 0 {
			if row.Completed == 0 {
				return ChaosResult{}, fmt.Errorf("experiments: fault-free %s baseline never completed", cell.strategy)
			}
			baseline[cell.strategy] = row
		} else if base, ok := baseline[cell.strategy]; ok && row.Completed > 0 {
			row.CostDegradation = row.MeanCost/base.MeanCost - 1
			row.CompletionDegradation = float64(row.MeanCompletion)/float64(base.MeanCompletion) - 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the (strategy, rate) row, or false.
func (r ChaosResult) Row(strategy string, rate float64) (ChaosRow, bool) {
	for _, row := range r.Rows {
		if row.Strategy == strategy && row.Rate == rate {
			return row, true
		}
	}
	return ChaosRow{}, false
}

// Render returns the degradation table as aligned text.
func (r ChaosResult) Render() string {
	rows := make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		rows[i] = []string{
			row.Strategy, fmt.Sprintf("%.2f", row.Rate),
			fmt.Sprintf("%d/%d", row.Completed, row.Runs),
			f4(row.MeanCost), f2(float64(row.MeanCompletion)),
			pct(row.CostDegradation), pct(row.CompletionDegradation),
			fmt.Sprintf("%d", row.FellBack), fmt.Sprintf("%d", row.StaleRuns),
			fmt.Sprintf("%d", row.CheckpointFailures), fmt.Sprintf("%d", row.Faults),
		}
	}
	return Table([]string{"strategy", "rate", "completed", "cost", "compl(h)", "Δcost", "Δcompl", "od-fallback", "stale", "ckpt-lost", "faults"}, rows)
}
