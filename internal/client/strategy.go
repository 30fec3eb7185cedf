package client

// The strategy execution engine: RunStrategy turns an
// internal/strategy Decision into supervised legs on the simulated
// cloud. The historical entrypoints (RunOneTime, RunPersistent,
// RunPercentile, RunFixedBid) are thin wrappers over this path — the
// equivalence goldens in golden_test.go pin them bit-for-bit to the
// pre-engine client.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/obs/event"
	"repro/internal/retry"
	"repro/internal/strategy"
	"repro/internal/timeslot"
)

// maxAdaptiveLegs bounds how many cancel-and-resubmit cycles an
// adaptive strategy may drive before the client stops listening and
// finishes the remainder on-demand — a runaway Reprice must not be
// able to thrash forever.
const maxAdaptiveLegs = 64

// RunStrategy prices and runs the job under an arbitrary bidding
// strategy: the client builds the market observation, the strategy
// returns a Decision, and the client executes it — a plain supervised
// spot leg, a sequential tranche split, an adaptive leg loop, or the
// on-demand baseline — with the full resilience runtime (retry
// budgets, fallback playbook, stall watchdog) underneath.
func (c *Client) RunStrategy(spec job.Spec, strat strategy.Strategy) (Report, error) {
	if strat == nil {
		return Report{}, errors.New("client: nil strategy")
	}
	c.setActive(nil)
	name := strat.Name()
	m, tel, err := c.market(spec.Type)
	if err != nil {
		return Report{}, err
	}
	d, err := strat.Decide(c.observation(spec, m))
	if err != nil {
		return Report{}, err
	}
	if d.Type != "" && d.Type != spec.Type {
		// The strategy switched instance classes; it promised to have
		// priced the switch from Observation.MarketFor, so the run (and
		// its analytic view) follows the new class.
		spec.Type = d.Type
		if m, err = c.Market(d.Type); err != nil {
			return Report{}, err
		}
	}
	if ad, ok := strat.(strategy.Adaptive); ok {
		return c.runAdaptive(name, spec, m, ad, d, tel)
	}
	if len(d.Tranches) > 0 {
		return c.runTranches(name, spec, d, tel)
	}
	if d.Abstain {
		return c.runNamedOnDemand(name, spec, tel)
	}
	analytic := d.Analytic
	if d.Price > 0 && analytic.Price != d.Price {
		// The submitted bid is authoritative; a strategy that skipped
		// the analytic evaluation still bids its price.
		analytic.Price = d.Price
	}
	return c.runSpot(name, spec, analytic, d.Kind, tel)
}

// observation assembles the strategy's view of the market: the bid
// calculator's market snapshot, the remaining work, the live spot
// price, and the client-backed hooks (best-offline oracle, cross-type
// market views).
func (c *Client) observation(spec job.Spec, m core.Market) strategy.Observation {
	o := strategy.Observation{
		Market: m,
		Job:    core.Job{Exec: spec.Exec, Recovery: spec.Recovery},
		Slot:   c.Region.Now(),
		BestOffline: func(lookback timeslot.Hours) (float64, error) {
			var price float64
			_, err := c.policy().Do("price-history", func() error {
				hist, herr := c.Region.PriceHistory(spec.Type, lookback)
				if herr != nil {
					return herr
				}
				p, berr := hist.BestOfflinePrice(spec.Exec)
				if berr != nil {
					return berr
				}
				price = p
				return nil
			})
			return price, err
		},
		MarketFor: func(t instances.Type) (core.Market, error) { return c.Market(t) },
	}
	if spot, err := c.Region.SpotPrice(spec.Type); err == nil {
		o.Spot = spot
	}
	return o
}

// runNamedOnDemand is the abstain path: the on-demand baseline run
// under the deciding strategy's name, keeping the market fetch's
// telemetry on the report.
func (c *Client) runNamedOnDemand(name string, spec job.Spec, tel Telemetry) (Report, error) {
	rep, err := c.RunOnDemand(spec)
	if err != nil {
		return Report{}, err
	}
	rep.Strategy = name
	tel.Metrics = rep.Telemetry.Metrics
	rep.Telemetry = tel
	return rep, nil
}

// runTranches executes a tranche split sequentially: each tranche
// covers its weight's share of the remaining execution time as its
// own supervised leg (spot or on-demand), and the bills merge into one
// outcome. Tranches are independent slices — an interrupted spot
// tranche recovers within its own leg exactly like a whole job would.
func (c *Client) runTranches(name string, spec job.Spec, d strategy.Decision, tel Telemetry) (Report, error) {
	sum := 0.0
	for i, tr := range d.Tranches {
		if math.IsNaN(tr.Weight) || tr.Weight <= 0 {
			return Report{}, fmt.Errorf("client: %s tranche %d has weight %v", name, i, tr.Weight)
		}
		sum += tr.Weight
	}
	if math.Abs(sum-1) > 1e-9 {
		return Report{}, fmt.Errorf("client: %s tranche weights sum to %v, want 1", name, sum)
	}
	rep := Report{Strategy: name}
	var total job.Outcome
	remaining := spec.Exec
	for i, tr := range d.Tranches {
		exec := spec.Exec * timeslot.Hours(tr.Weight)
		if i == len(d.Tranches)-1 || exec > remaining {
			// The last tranche absorbs accumulated float residue.
			exec = remaining
		}
		if !(exec > 0) {
			continue
		}
		tspec := spec
		tspec.ID = fmt.Sprintf("%s-tranche%d", spec.ID, i+1)
		tspec.Exec = exec
		var sub Report
		var err error
		if tr.Abstain {
			tspec.Recovery = 0 // on-demand never gets interrupted
			sub, err = c.runNamedOnDemand(name, tspec, tel)
		} else {
			analytic := tr.Analytic
			if tr.Price > 0 && analytic.Price != tr.Price {
				analytic.Price = tr.Price
			}
			sub, err = c.runSpot(name, tspec, analytic, tr.Kind, tel)
		}
		if err != nil {
			return Report{}, err
		}
		remaining -= exec
		total = mergeOutcomes(total, sub.Outcome)
		rep.LeakedRequests = append(rep.LeakedRequests, sub.LeakedRequests...)
		rep.LeakedInstances = append(rep.LeakedInstances, sub.LeakedInstances...)
		// The report carries the first spot tranche's bid; telemetry
		// accumulates across tranches (each leg starts from the running
		// total, so the last leg's copy is the sum).
		if rep.BidPrice == 0 && sub.BidPrice > 0 {
			rep.BidPrice = sub.BidPrice
			rep.Analytic = sub.Analytic
		}
		tel = sub.Telemetry
		if !sub.Outcome.Completed {
			// Out of trace (or an out-bid one-time tranche): the later
			// tranches cannot improve on an unfinished job.
			break
		}
	}
	rep.Outcome = total
	rep.Telemetry = tel
	c.attachMetrics(&rep)
	return rep, nil
}

// runAdaptive drives an Adaptive strategy: the job runs as a sequence
// of legs (spot or on-demand), each supervised slot-by-slot with the
// strategy consulted for a revision. A revised leg releases its
// resources and the remainder resubmits under the new decision.
func (c *Client) runAdaptive(name string, spec job.Spec, m core.Market, strat strategy.Adaptive, d strategy.Decision, tel Telemetry) (Report, error) {
	span := c.Metrics.StartSpan("client.job_slots", c.Region.Now())
	if c.trace != nil {
		leg := c.trace.BeginSpan("leg:"+name, spec.ID, c.Region.ID(), c.Region.Now())
		defer func() { c.trace.EndSpan(leg, c.Region.Now()) }()
	}
	rep := Report{Strategy: name}
	var total job.Outcome
	remaining := spec.Exec
	for legIdx := 0; ; legIdx++ {
		if len(d.Tranches) > 0 {
			return Report{}, fmt.Errorf("client: adaptive strategy %s cannot split tranches", name)
		}
		legSpec := spec
		if legIdx > 0 {
			legSpec.ID = fmt.Sprintf("%s-leg%d", spec.ID, legIdx)
		}
		legSpec.Exec = remaining
		// An abstaining (or degenerate) decision — and any leg past the
		// thrash bound — runs on-demand.
		onDemand := d.Abstain || legIdx >= maxAdaptiveLegs || !(d.Price > 0)
		var tracker *job.Tracker
		if !onDemand {
			if rep.BidPrice == 0 {
				rep.BidPrice = d.Price
				rep.Analytic = d.Analytic
			}
			if c.Metrics != nil {
				c.Metrics.Histogram("client.bid_usd", obs.PriceBuckets).Observe(d.Price)
			}
			tk, err := c.submitSpot(legSpec, d.Price, d.Kind, &tel)
			switch {
			case err == nil:
				tracker = tk
			case !retry.IsTransient(err):
				return Report{}, err
			default:
				// Submission budget exhausted: this leg runs on-demand
				// (§3.2's playbook), delegate willing.
				c.Metrics.Counter("client.submit.exhausted").Inc()
				if c.Delegate != nil && !c.Delegate.AllowOnDemand(legSpec, ReasonSubmitExhausted) {
					c.Metrics.Counter("client.fallback.vetoed").Inc()
					return Report{}, fmt.Errorf("%s: %w", ReasonSubmitExhausted, ErrFallbackVetoed)
				}
				c.Metrics.Counter("client.fallback.on_demand").Inc()
				c.trace.Emit(&event.Event{Kind: event.FallbackOnDemand, Slot: c.Region.Now(),
					Region: c.Region.ID(), Job: legSpec.ID, Cause: string(ReasonSubmitExhausted)})
				tel.FellBackOnDemand = true
				onDemand = true
			}
		}
		if onDemand {
			odSpec := legSpec
			odSpec.Recovery = 0 // on-demand never gets interrupted
			tk, err := job.NewOnDemandJob(c.Region, odSpec)
			if err != nil {
				return Report{}, err
			}
			tracker = tk
		}
		c.setActive(tracker)
		out, next, revised, err := c.superviseAdaptive(tracker, spec, strat, m, legIdx, onDemand, &tel)
		if err != nil {
			return Report{}, err
		}
		total = mergeOutcomes(total, out)
		if !revised {
			rep.noteUnreleased(tracker)
			break
		}
		remaining = tracker.Remaining()
		if out.RunTime > 0 {
			// The next leg restores checkpointed state first.
			remaining += spec.Recovery
		}
		if !(remaining > 0) {
			break
		}
		tel.Rebids++
		c.Metrics.Counter("client.rebids").Inc()
		d = next
	}
	span.End(c.Region.Now())
	if c.trace != nil {
		c.trace.Emit(&event.Event{Kind: event.LegComplete, Slot: c.Region.Now(),
			Region: c.Region.ID(), Job: spec.ID, Subject: name, Value: total.Cost})
	}
	rep.Outcome = total
	rep.Telemetry = tel
	c.attachMetrics(&rep)
	return rep, nil
}

// superviseAdaptive drives one leg of an adaptive run, consulting the
// strategy every slot. When the strategy revises, the leg's resources
// are released and the next decision is handed back; an end-of-trace
// simply reports the progress made.
func (c *Client) superviseAdaptive(tracker *job.Tracker, spec job.Spec, strat strategy.Adaptive, m core.Market, legIdx int, onDemand bool, tel *Telemetry) (job.Outcome, strategy.Decision, bool, error) {
	idle := 0
	for !tracker.Done() {
		if err := c.tick(); err != nil {
			if errors.Is(err, cloud.ErrEndOfTrace) {
				return tracker.Outcome(), strategy.Decision{}, false, nil
			}
			return job.Outcome{}, strategy.Decision{}, false, err
		}
		if err := tracker.Observe(); err != nil {
			return job.Outcome{}, strategy.Decision{}, false, err
		}
		if tracker.Done() {
			break
		}
		if s := tracker.Status(); s == job.Pending || s == job.Idle {
			idle++
		} else {
			idle = 0
		}
		o := c.observation(spec, m)
		o.Job.Exec = tracker.Remaining()
		o.Leg = legIdx
		o.IdleSlots = idle
		o.OnSpot = !onDemand
		next, revise := strat.Reprice(o)
		if !revise {
			continue
		}
		ok, err := c.releaseLeg(tracker)
		if err != nil {
			return job.Outcome{}, strategy.Decision{}, false, err
		}
		if !ok {
			// The release budget is exhausted: keep supervising this leg
			// rather than risk paying for two at once — the strategy can
			// ask again later.
			idle = 0
			continue
		}
		return tracker.Outcome(), next, true, nil
	}
	return tracker.Outcome(), strategy.Decision{}, false, nil
}

// releaseLeg returns a live leg's resources ahead of a re-bid:
// cancelling the spot request (which also terminates its running
// instance) or terminating the on-demand instance. It reports false
// when transient faults exhausted the release budget — the caller
// keeps the leg rather than risk a double bill.
func (c *Client) releaseLeg(t *job.Tracker) (bool, error) {
	if req := t.Request(); req != nil {
		switch req.State {
		case cloud.Closed, cloud.Cancelled:
			return true, nil
		}
		if _, err := c.policy().Do("cancel", func() error {
			return c.Region.CancelSpotRequest(req.ID)
		}); err != nil {
			if !retry.IsTransient(err) {
				return false, err
			}
			return false, nil
		}
		return true, nil
	}
	if inst := t.Instance(); inst != nil && inst.Running {
		if _, err := c.policy().Do("terminate", func() error {
			return c.Region.TerminateInstance(inst.ID)
		}); err != nil {
			if !retry.IsTransient(err) {
				return false, err
			}
			return false, nil
		}
	}
	return true, nil
}
