package main

import (
	"fmt"
	"time"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/job"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// traceSet is a workload's input traces: these instance types at the
// run's seed, days long.
type traceSet struct {
	types []instances.Type
	days  int
}

// generate produces the set's traces, one per distinct type.
func (s traceSet) generate(seed int64) ([]*trace.Trace, error) {
	seen := map[instances.Type]bool{}
	var out []*trace.Trace
	for _, t := range s.types {
		if seen[t] {
			continue
		}
		seen[t] = true
		tr, err := trace.Generate(t, trace.GenOptions{Days: s.days, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("generating %s: %w", t, err)
		}
		out = append(out, tr)
	}
	return out, nil
}

// historySlots is the two-month price window every experiment client
// watches before it submits.
const historySlots = 61 * 288

// tableJobs is Table 3's one-hour job with its two recovery times.
var tableJobs = []core.Job{
	{Exec: 1, Recovery: timeslot.Seconds(10)},
	{Exec: 1, Recovery: timeslot.Seconds(30)},
}

// prober times layers' public functions on a workload's inputs. Probes
// time the calls from outside, the only view the benchmark has of the
// layers below internal/experiments.
type prober struct {
	seed   int64
	inputs traceSet
	out    *outcome
	err    error
	traces []*trace.Trace // cold-generated inputs, set by generation
}

// run generates the inputs (timing trace generation), then runs the
// workload's probes.
func (p *prober) run(probes func(*prober)) error {
	var gen []float64
	seen := map[instances.Type]bool{}
	for _, t := range p.inputs.types {
		if seen[t] {
			continue
		}
		seen[t] = true
		trace.ResetMemo()
		start := time.Now()
		tr, err := trace.Generate(t, trace.GenOptions{Days: p.inputs.days, Seed: p.seed})
		gen = append(gen, msSince(start))
		if err != nil {
			return fmt.Errorf("probe: generating %s: %w", t, err)
		}
		p.traces = append(p.traces, tr)
	}
	p.out.set("trace.generate_ms", "ms", median(gen))
	probes(p)
	return p.err
}

func (p *prober) check(err error) bool {
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("probe: %w", err)
	}
	return err == nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
func usSince(t time.Time) float64 { return float64(time.Since(t)) / 1e3 }

// probePrices spreads n probe prices over [lo, hi].
func probePrices(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// ecdfLayers times the empirical path: the full-series ECDF build,
// window pushes, partial means, and the Prop. 4/5 solves on the ECDF.
func (p *prober) ecdfLayers() {
	var build, push, pm, pers, one []float64
	for _, tr := range p.traces {
		spec := instances.MustLookup(tr.Type)
		start := time.Now()
		e, err := tr.ECDF(0) // first call on a cold trace builds it
		build = append(build, usSince(start))
		if !p.check(err) {
			return
		}

		w, err := dist.NewWindowedECDF(historySlots, 0)
		if !p.check(err) {
			return
		}
		start = time.Now()
		for _, x := range tr.Prices {
			if !p.check(w.Push(x)) {
				return
			}
		}
		push = append(push, float64(time.Since(start))/float64(len(tr.Prices)))

		prices := probePrices(e.Support().Lo, spec.OnDemand, 64)
		start = time.Now()
		for _, x := range prices {
			e.PartialMean(x)
		}
		pm = append(pm, float64(time.Since(start))/float64(len(prices)))

		m := core.Market{Price: e, OnDemand: spec.OnDemand}
		for _, j := range tableJobs {
			start = time.Now()
			_, err := m.PersistentBid(j)
			pers = append(pers, usSince(start))
			if !p.check(err) {
				return
			}
		}
		start = time.Now()
		_, err = m.OneTimeBid(core.Job{Exec: 1})
		one = append(one, usSince(start))
		if !p.check(err) {
			return
		}
	}
	p.out.set("dist.ecdf_build_us", "us", median(build))
	p.out.set("dist.window_push_ns", "ns", median(push))
	p.out.set("dist.partial_mean_ns", "ns", median(pm))
	p.out.set("core.persistent_bid_ecdf_us", "us", median(pers))
	p.out.set("core.onetime_bid_ecdf_us", "us", median(one))
}

// analyticLayers times the calibrated equilibrium distribution and the
// Prop. 4/5 solves on it, the path the ablations take.
func (p *prober) analyticLayers() {
	var pm, cdf, pers, one []float64
	for i, t := range p.inputs.types {
		cal, err := trace.CalibrationFor(t)
		if !p.check(err) {
			return
		}
		d, err := cal.PriceDist()
		if !p.check(err) {
			return
		}
		for _, x := range probePrices(cal.Provider.PMin, instances.MustLookup(t).OnDemand, 16) {
			start := time.Now()
			d.PartialMean(x)
			pm = append(pm, usSince(start))
			start = time.Now()
			d.CDF(x)
			cdf = append(cdf, usSince(start))
		}
		m := core.Market{Price: d, OnDemand: instances.MustLookup(t).OnDemand}
		start := time.Now()
		_, err = m.OneTimeBid(core.Job{Exec: 1})
		one = append(one, usSince(start))
		if !p.check(err) {
			return
		}
		if i > 0 {
			continue // one type's persistent solves bound the probe's time
		}
		for _, j := range tableJobs {
			start := time.Now()
			_, err := m.PersistentBid(j)
			pers = append(pers, msSince(start))
			if !p.check(err) {
				return
			}
		}
	}
	p.out.set("market.partial_mean_us", "us", median(pm))
	p.out.set("market.cdf_us", "us", median(cdf))
	p.out.set("core.persistent_bid_analytic_ms", "ms", median(pers))
	p.out.set("core.onetime_bid_analytic_us", "us", median(one))
}

// clientLayers times the region tick and job tracker under job.Run,
// the client's market fetch with and without an armed (zero-rate)
// chaos injector, and a whole persistent run, on the first input.
func (p *prober) clientLayers() {
	tr := p.traces[0]
	spec := job.Spec{ID: "probe-job", Type: tr.Type, Exec: 24, Recovery: timeslot.Seconds(30)}
	e, err := tr.ECDF(0)
	if !p.check(err) {
		return
	}
	bid, err := core.Market{Price: e, OnDemand: instances.MustLookup(tr.Type).OnDemand}.
		PersistentBid(core.Job{Exec: spec.Exec, Recovery: spec.Recovery})
	if !p.check(err) {
		return
	}
	var runs, ticks []float64
	for i := 0; i < 5; i++ {
		region, err := cloud.NewRegion(tr)
		if !p.check(err) {
			return
		}
		start := time.Now()
		t, err := job.NewSpotJob(region, nil, spec, bid.Price, cloud.Persistent)
		if !p.check(err) {
			return
		}
		_, err = job.Run(region, t)
		d := time.Since(start)
		if !p.check(err) {
			return
		}
		runs = append(runs, float64(d)/1e6)
		ticks = append(ticks, float64(d)/float64(max(region.Now(), 1)))
	}
	p.out.set("job.run_ms", "ms", median(runs))
	p.out.set("cloud.tick_ns", "ns", median(ticks))

	fetch := func(armed bool) []float64 {
		region, err := cloud.NewRegion(tr)
		if !p.check(err) {
			return nil
		}
		if armed {
			in, err := chaos.New(chaos.Config{Seed: p.seed})
			if !p.check(err) || !p.check(in.Arm(region, nil)) {
				return nil
			}
		}
		cl, err := client.New(region)
		if !p.check(err) || !p.check(cl.Skip(historySlots)) {
			return nil
		}
		if _, err := cl.Market(tr.Type); !p.check(err) {
			return nil
		}
		var out []float64
		for i := 0; i < 50; i++ {
			if !p.check(cl.Skip(1)) {
				return nil
			}
			start := time.Now()
			_, err := cl.Market(tr.Type)
			out = append(out, usSince(start))
			if !p.check(err) {
				return nil
			}
		}
		return out
	}
	p.out.set("client.market_us", "us", median(fetch(false)))
	p.out.set("client.market_armed_us", "us", median(fetch(true)))

	var pers []float64
	for i := 0; i < 5; i++ {
		region, err := cloud.NewRegion(tr)
		if !p.check(err) {
			return
		}
		cl, err := client.New(region)
		if !p.check(err) || !p.check(cl.Skip(historySlots+37*i)) {
			return
		}
		start := time.Now()
		_, err = cl.RunPersistent(job.Spec{ID: "probe-run", Type: tr.Type, Exec: 1, Recovery: timeslot.Seconds(30)})
		pers = append(pers, msSince(start))
		if !p.check(err) {
			return
		}
	}
	p.out.set("client.run_persistent_ms", "ms", median(pers))
}

// invariantLayers times one scenario run and one invariant-suite audit
// on twenty schedules spread over the campaign.
func (p *prober) invariantLayers() {
	sc, scheds := campaign(p.seed)
	var runs, verifies []float64
	for i := 0; i < len(scheds); i += len(scheds) / 20 {
		start := time.Now()
		res, err := sc.Run(scheds[i])
		runs = append(runs, msSince(start))
		if !p.check(err) {
			return
		}
		start = time.Now()
		vs := invariant.NewSuite(res.State.Params).Verify(res.Events, res.State)
		verifies = append(verifies, msSince(start))
		if len(vs) > 0 {
			p.check(fmt.Errorf("schedule %d: %d invariant violation(s)", i, len(vs)))
			return
		}
	}
	p.out.set("invariant.scenario_run_ms", "ms", median(runs))
	p.out.set("invariant.verify_ms", "ms", median(verifies))
}
