// Package spotbid is a faithful reproduction of "How to Bid the
// Cloud" (Zheng, Joe-Wong, Tan, Chiang, Wang — SIGCOMM 2015): optimal
// bidding strategies for auction-priced cloud spot instances,
// together with the provider-side spot-price model the strategies are
// derived from and a complete simulated EC2 substrate to evaluate
// them on.
//
// The package is a facade: it re-exports the names the runnable
// examples (examples/ and example_test.go) use, so they import one
// path. The implementation, and the rest of its API, lives in the
// internal packages this facade draws from:
//
//   - internal/core        — the bidding strategies (Prop. 4/5, Eq. 19/20)
//   - internal/market      — the provider model (§4) and its queue
//     simulator
//   - internal/dist        — hand-rolled probability distributions
//   - internal/instances   — the instance catalog (Table 2)
//   - internal/trace       — the calibrated synthetic price generator
//   - internal/timeslot    — the paper's time units
//   - internal/cloud       — the simulated EC2 region (spot + on-demand)
//   - internal/job         — single-instance job specs
//   - internal/mapreduce   — the §7.2 word-count corpus helpers
//   - internal/workflow    — DAG workflows (§8 task dependence)
//   - internal/chaos       — fault injection
//   - internal/client      — the Fig. 1 bidding client
//   - internal/fleet       — the multi-region failover controller
//   - internal/obs/event   — the deterministic flight recorder
//   - internal/experiments — the strategy tournament (and every table
//     and figure)
//
// # Quickstart
//
//	history, _ := spotbid.GenerateTrace(spotbid.R3XLarge, spotbid.GenOptions{})
//	ecdf, _ := history.ECDF(0)
//	m := spotbid.Market{Price: ecdf, OnDemand: 0.35}
//	bid, _ := m.PersistentBid(spotbid.Job{Exec: 1, Recovery: spotbid.Seconds(30)})
//	fmt.Printf("bid $%.4f/h, expected cost $%.4f\n", bid.Price, bid.ExpectedCost)
//
// See the examples/ directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the reproduction methodology.
package spotbid

import (
	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/mapreduce"
	"repro/internal/market"
	"repro/internal/obs/event"
	"repro/internal/timeslot"
	"repro/internal/trace"
	"repro/internal/workflow"
)

// Seconds converts seconds to hours, the paper's time unit
// (t_r = Seconds(30)).
func Seconds(s float64) timeslot.Hours { return timeslot.Seconds(s) }

// Dist is a univariate continuous distribution (see internal/dist).
type Dist = dist.Dist

// The provider model (§4; see internal/market).
type (
	// Provider holds (π̲, π̄, β, θ).
	Provider = market.Provider
	// MarketSimulator runs the full queue dynamics (Fig. 2).
	MarketSimulator = market.Simulator
)

// The bidding strategies (§5–6; see internal/core).
type (
	// Market is a spot market seen by the bidder: F_π + π̄ + t_k.
	Market = core.Market
	// Job is a single-instance job (t_s, t_r).
	Job = core.Job
	// MapReduceJob is the parallel job of §6.
	MapReduceJob = core.MapReduceJob
)

// PlanMapReduce solves the joint master/slave problem of Eq. 20.
var PlanMapReduce = core.PlanMapReduce

// Instance types from the paper's catalog (Table 2; see
// internal/instances).
const (
	M3XLarge = instances.M3XLarge
	R3XLarge = instances.R3XLarge
	C34XL    = instances.C34XL
)

// LookupInstance returns a type's size and on-demand price.
var LookupInstance = instances.Lookup

// GenOptions tunes the calibrated synthetic price generator (see
// internal/trace).
type GenOptions = trace.GenOptions

// Trace generation and a type's generative parameters.
var (
	GenerateTrace  = trace.Generate
	CalibrationFor = trace.CalibrationFor
)

// The simulated cloud (see internal/cloud and internal/job).
type (
	// Region is the simulated EC2 region.
	Region = cloud.Region
	// JobSpec describes a job run against a region.
	JobSpec = job.Spec
)

// Persistent is the persistent spot-request kind.
const Persistent = cloud.Persistent

// NewRegion builds a region over one price trace per instance type.
var NewRegion = cloud.NewRegion

// MapReduce corpus helpers (see internal/mapreduce).
var (
	GenerateCorpus = mapreduce.GenerateCorpus
	CountWords     = mapreduce.CountWords
	TopWords       = mapreduce.TopWords
)

// DAG workflows (the §8 "task dependence" extension; see
// internal/workflow).
type (
	// WorkflowTask is one DAG node; WorkflowRunner executes the DAG,
	// bidding on each task only once its dependencies complete.
	WorkflowTask   = workflow.Task
	WorkflowRunner = workflow.Runner
)

// NewWorkflow validates and builds a task DAG.
var NewWorkflow = workflow.New

// Fault injection (see internal/chaos).
type (
	// ChaosConfig selects fault types and rates; ChaosStats counts
	// injected faults.
	ChaosConfig = chaos.Config
	ChaosStats  = chaos.Stats
)

// Chaos constructors: NewChaos builds the seeded injector a Region
// and Volume are armed with; UniformChaos scales every fault
// intensity with one rate knob.
var (
	NewChaos     = chaos.New
	UniformChaos = chaos.Uniform
)

// The bidding client (Fig. 1; see internal/client).
type (
	// Client glues price monitor, bid calculator, and job monitor.
	Client = client.Client
	// Telemetry records the degradation a run absorbed (stale
	// estimates, retries, on-demand fallback).
	Telemetry = client.Telemetry
	// Report pairs analytic predictions with measured outcomes.
	Report = client.Report
	// MapReduceSpec is the parallel-job equivalent of JobSpec.
	MapReduceSpec = client.MapReduceSpec
)

// NewClient builds a client for a region.
var NewClient = client.New

// The multi-region fleet controller (see internal/fleet): supervised
// clients across regions with circuit breakers, checkpoint migration,
// and cross-market failover.
type (
	// FleetMember binds a region and its client under one ID.
	FleetMember = fleet.Member
	// FleetConfig tunes breaker thresholds and migration accounting.
	FleetConfig = fleet.Config
)

// NewFleet builds a fleet controller over member regions.
var NewFleet = fleet.NewController

// TraceConfig tunes the flight recorder's capacity and
// bounded/unbounded mode (see internal/obs/event).
type TraceConfig = event.Config

// NewRecorder builds a deterministic flight recorder (bounded ring
// buffer by default; Unbounded for full experiment exports). Install
// it with Client.SetTrace, Region.SetTrace, or FleetConfig.Trace.
var NewRecorder = event.NewRecorder

// The strategy tournament (see internal/experiments): every registered
// strategy raced across the chaos grid, each cell audited by the
// invariant suite and replay-verified, ranked into a league table.
// ExperimentOpts parameterizes it (seed, runs, optional metrics
// registry and flight recorder).
type ExperimentOpts = experiments.Opts

// Tournament runs the strategy league.
var Tournament = experiments.Tournament
