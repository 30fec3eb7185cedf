package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/experiments"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/trace"
)

// section is one call into internal/experiments plus the check of its
// output. run returns how many operations it attempted (1 for a
// section; one per schedule for the resilience campaign) and the
// failures among them.
type section struct {
	name string // metric name: experiments.<name>_s
	run  func(o experiments.Opts) (attempted int, failures []string)
}

// batchWorkload is a fixed list of sections; one pass runs each once,
// from a cold trace memo, as a fresh cmd/experiments process would.
type batchWorkload struct {
	sections []section
	// inputs is the workload's trace set: the instance types and trace
	// length its sections generate at a pass's seed. Set-up time and
	// the trace/dist/core probes use it.
	inputs traceSet
	// golden runs the Table 3 / Fig. 5–6 golden comparison once.
	golden bool
	// probes measures the per-layer costs of a traced run.
	probes func(p *prober)
	// startPass, when set, resets per-pass counts.
	startPass func()
}

// call wraps an experiments function whose output needs no check
// beyond a nil error.
func call[T any](f func(experiments.Opts) (T, error)) func(experiments.Opts) (int, []string) {
	return checked(f, func(T) error { return nil })
}

// checked wraps an experiments function and a check of its result.
func checked[T any](f func(experiments.Opts) (T, error), check func(T) error) func(experiments.Opts) (int, []string) {
	return func(o experiments.Opts) (int, []string) {
		res, err := f(o)
		if err == nil {
			err = check(res)
		}
		if err != nil {
			return 1, []string{err.Error()}
		}
		return 1, nil
	}
}

func paperWorkload() batchWorkload {
	mapreduce := func(o experiments.Opts) (experiments.Fig7Result, error) {
		_, f7, err := experiments.MapReduceEval(o)
		return f7, err
	}
	types := append(instances.Table3Types(), instances.Figure3Types()...)
	return batchWorkload{
		sections: []section{
			{"fig3", call(experiments.Figure3)},
			{"table3", checked(experiments.Table3, checkTable3)},
			{"fig4", call(experiments.Figure4)},
			{"fig5", checked(experiments.Figure5, checkFigure5)},
			{"fig6", call(experiments.Figure6)},
			{"mapreduce", call(mapreduce)},
			{"stability", call(experiments.Stability)},
			{"forecast", call(experiments.ForecastEval)},
		},
		inputs: traceSet{types: types, days: 63},
		golden: true,
		probes: func(p *prober) { p.ecdfLayers(); p.analyticLayers(); p.clientLayers() },
	}
}

func chaosWorkload() batchWorkload {
	var st chaosStats
	// A tournament contender's invariant violations are the tournament's
	// own measured result, counted here and reported; only a replay
	// that diverged makes the section's output wrong. A cell whose
	// audit run errored also reads ReplayOK false, and the tournament
	// reports that error as an "audit" violation, counted like the rest.
	tournament := func(r experiments.TournamentResult) error {
		for _, row := range r.Rows {
			for _, c := range row.Cells {
				if !c.ReplayOK && !slices.ContainsFunc(c.Violations, func(v invariant.Violation) bool {
					return v.Checker == "audit"
				}) {
					return fmt.Errorf("tournament %s at rate %v: replay diverged", row.Strategy, c.Rate)
				}
			}
			if row.Violations > 0 {
				st.tournamentViolations += row.Violations
				fmt.Fprintf(os.Stderr, "perfbench: note: tournament contender %s: %d invariant violation(s)\n",
					row.Strategy, row.Violations)
			}
		}
		return nil
	}
	return batchWorkload{
		sections: []section{
			{"chaos", call(experiments.ChaosSweep)},
			{"tournament", checked(experiments.Tournament, tournament)},
			{"failover", call(experiments.FailoverSweep)},
			{"resilcheck", func(o experiments.Opts) (int, []string) { return runCampaign(o, &st) }},
		},
		inputs: traceSet{types: []instances.Type{instances.R3XLarge}, days: 63},
		probes: func(p *prober) {
			p.out.set("invariant.schedules", "count", float64(st.schedules))
			p.out.set("invariant.violations", "count", float64(st.violations))
			p.out.set("experiments.tournament_violations", "count", float64(st.tournamentViolations))
			p.ecdfLayers()
			p.clientLayers()
			p.invariantLayers()
		},
		startPass: func() { st = chaosStats{} },
	}
}

// campaign lists the resilcheck smoke campaign's schedules for a seed:
// the default grid plus 30 random schedules, as cmd/resilcheck runs it.
func campaign(seed int64) (invariant.Scenario, []chaos.Schedule) {
	sc := invariant.Scenario{Seed: seed, Regions: 2}
	grid := invariant.DefaultGrid()
	grid.Seed = seed
	base := sc.SubmitSlot()
	scheds := grid.Schedules(base)
	scheds = append(scheds, grid.Random(30, 3, base, 72)...)
	return sc, scheds
}

// chaosStats counts, over one pass, the campaign's schedules and
// invariant violations and the tournament contenders' violations.
type chaosStats struct{ schedules, violations, tournamentViolations int }

// runCampaign audits every campaign schedule, replay on, on one worker
// per CPU, and records its counts in st.
func runCampaign(o experiments.Opts, st *chaosStats) (int, []string) {
	sc, scheds := campaign(o.Seed)
	results := make([]invariant.ScheduleResult, len(scheds))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				results[i] = invariant.RunSchedule(sc, i, scheds[i], true)
			}
		}()
	}
	for i := range scheds {
		next <- i
	}
	close(next)
	wg.Wait()
	var failures []string
	st.schedules += len(results)
	for _, r := range results {
		st.violations += len(r.Violations)
		if err := checkSchedule(r); err != nil {
			failures = append(failures, err.Error())
		}
	}
	return len(scheds), failures
}

// sectionCall is one section call: the benchmark's operation on a
// batch workload.
type sectionCall struct {
	section string
	seconds float64
}

// passResult is one pass over a batch workload's sections, or over
// those of them that were not skipped.
type passResult struct {
	wall      time.Duration
	calls     []sectionCall
	attempted int
	failures  []string
	memoHits  uint64 // trace memo counts at the end of the pass
	memoMiss  uint64
}

// passSeed derives the seed pass k of a run uses. Every pass runs at a
// new seed, so a run's figures summarise as many seeds as fit in its
// budget: the cost of some sections (Fig. 4's example job, Fig. 3's
// fits) differs several-fold between seeds, and figures over a few
// fixed seeds would depend on which seeds the run drew.
func passSeed(seed int64, k int) int64 { return seed*1000 + int64(k) }

// runPass runs every section once at seed, from a cold trace memo as a
// fresh cmd/experiments process would. skip, when non-nil, is asked
// before each section call and skips the section when it returns true.
// rec, when non-nil, records a span per section call; met, when
// non-nil, is attached to the experiments as their metrics registry.
func (w batchWorkload) runPass(seed int64, skip func(section string) bool, rec *recorder, met *obs.Registry) passResult {
	if w.startPass != nil {
		w.startPass()
	}
	var pr passResult
	start := time.Now()
	trace.ResetMemo()
	o := experiments.Opts{Seed: seed, Metrics: met}
	for _, sec := range w.sections {
		if skip != nil && skip(sec.name) {
			continue
		}
		t0 := time.Now()
		n, fails := sec.run(o)
		t1 := time.Now()
		rec.add(rec.newID(), 0, "experiments."+sec.name, t0, t1)
		pr.calls = append(pr.calls, sectionCall{sec.name, t1.Sub(t0).Seconds()})
		pr.attempted += n
		for _, f := range fails {
			pr.failures = append(pr.failures, fmt.Sprintf("%s (seed %d): %s", sec.name, seed, f))
		}
	}
	pr.memoHits, pr.memoMiss = trace.MemoStats()
	pr.wall = time.Since(start)
	return pr
}

// setupTimes measures the workload's set-up: generating its trace set
// at the first pass's seed from a cold memo and building each trace's
// ECDF, the inputs every invocation derives before a section can
// compute. It repeats the set-up for about setupBudget (5 to 51 times)
// and returns one duration per repetition.
func (w batchWorkload) setupTimes(seed int64) ([]float64, error) {
	const setupBudget = 1500 * time.Millisecond
	var out []float64
	begin := time.Now()
	for len(out) < 5 || (len(out) < 51 && time.Since(begin) < setupBudget) {
		trace.ResetMemo()
		runtime.GC() // every repetition starts from the same heap
		start := time.Now()
		trs, err := w.inputs.generate(passSeed(seed, 0))
		if err != nil {
			return nil, err
		}
		for _, tr := range trs {
			if _, err := tr.ECDF(0); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

// runBatch measures a batch workload for the run's budget.
func runBatch(cfg runConfig, w batchWorkload) (*outcome, error) {
	out := &outcome{}
	start := time.Now()
	setup, err := w.setupTimes(cfg.seed)
	if err != nil {
		return nil, err
	}
	if w.golden {
		out.attempted++
		if err := checkGoldens(); err != nil {
			out.failures = append(out.failures, "golden: "+err.Error())
		}
	}
	absorb := func(pr passResult) {
		out.attempted += pr.attempted
		out.failures = append(out.failures, pr.failures...)
	}
	if cfg.traced {
		return out, w.traced(cfg, out, start, absorb)
	}

	// Passes repeat, each at a new seed, until the budget is spent.
	// After the first pass, a section call that would overrun the
	// budget (judged by its median so far) is skipped, and passes go on
	// while any section still fits, so the short sections fill the time
	// the long ones no longer fit in and get more samples. A section
	// that runs after a skipped one may pay for trace generation the
	// skipped one would have done; that touches a few of its many
	// samples, not its median.
	deadline := start.Add(cfg.budget)
	bySection := map[string][]float64{}
	var calls int
	var measured time.Duration
	for k := 0; ; k++ {
		skip := func(section string) bool {
			d := time.Duration(median(bySection[section]) * float64(time.Second))
			return k > 0 && time.Now().Add(d).After(deadline)
		}
		pr := w.runPass(passSeed(cfg.seed, k), skip, nil, nil)
		if len(pr.calls) == 0 {
			break
		}
		absorb(pr)
		measured += pr.wall
		calls += len(pr.calls)
		for _, c := range pr.calls {
			bySection[c.section] = append(bySection[c.section], c.seconds)
		}
	}
	// Each section is summarised by its median call over the run's
	// seeds, so a stall moves only the call it hit, and passes that
	// skipped sections do not tilt the mix. A pass's time is the sum of
	// those medians; the op metrics are their distribution over the
	// sections, and ops_per_s is the section count over the pass time.
	var ops []float64
	pass := 0.0
	for _, d := range bySection {
		ops = append(ops, median(d))
		pass += median(d)
	}
	out.set("setup_s", "s", median(setup))
	out.set("run_s", "s", pass)
	out.set("op_p50_us", "us", median(ops)*1e6)
	out.set("op_p90_us", "us", quantile(ops, 0.9)*1e6)
	out.set("ops_per_s", "1/s", float64(len(ops))/pass)
	fmt.Printf("# %d section calls over %.2fs, %d sections\n", calls, measured.Seconds(), len(ops))
	return out, nil
}

// traced is the per-layer run: untraced and traced passes alternate
// (their ratio is the tracing overhead), the traced ones under a CPU
// profile with spans and a metrics registry attached; then the
// workload's probes time each layer's public functions on its inputs.
func (w batchWorkload) traced(cfg runConfig, out *outcome, start time.Time, absorb func(passResult)) error {
	rec := newRecorder()
	var (
		samples            []sample
		plain, tracedWalls []float64
		last               passResult
		met                *obs.Registry
		ms0, ms1           runtime.MemStats
		allocs, gcs        float64
	)
	const probeReserve = 4 * time.Second
	for k := 0; ; k++ {
		pr := w.runPass(passSeed(cfg.seed, k), nil, nil, nil)
		absorb(pr)
		plain = append(plain, pr.wall.Seconds())

		met = obs.New()
		var prof bytes.Buffer
		runtime.ReadMemStats(&ms0)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		pr = w.runPass(passSeed(cfg.seed, k), nil, rec, met)
		pprof.StopCPUProfile()
		runtime.ReadMemStats(&ms1)
		allocs += float64(ms1.TotalAlloc - ms0.TotalAlloc)
		gcs += float64(ms1.NumGC - ms0.NumGC)
		absorb(pr)
		tracedWalls = append(tracedWalls, pr.wall.Seconds())
		last = pr
		s, err := parseProfile(prof.Bytes())
		if err != nil {
			return err
		}
		samples = append(samples, s...)
		pair := time.Duration((median(plain) + median(tracedWalls)) * float64(time.Second))
		if time.Since(start)+pair+probeReserve > cfg.budget {
			break
		}
	}
	setCPUShares(out, samples)

	spans := rec.spans()
	for _, name := range allSections {
		out.set("experiments."+name+"_s", "s", median(durations(spans, "experiments."+name))/1e9)
	}
	out.set("invariant.campaign_s", "s", median(durations(spans, "experiments.resilcheck"))/1e9)
	calls := last.memoHits + last.memoMiss
	out.set("trace.generate_calls", "count", float64(calls))
	if calls > 0 {
		out.set("trace.memo_hit_ratio", "ratio", float64(last.memoHits)/float64(calls))
	}
	out.set("trace.slots_generated", "count", float64(met.CounterValue("trace.slots_generated")))
	out.set("cloud.slots", "count", float64(met.CounterValue("cloud.slots")))
	n := float64(len(tracedWalls))
	out.set("mem.alloc_mb", "MB", allocs/n/(1<<20))
	out.set("mem.gc_cycles", "count", gcs/n)
	out.set("bench.tracing_overhead", "ratio", median(tracedWalls)/median(plain)-1)

	p := &prober{seed: passSeed(cfg.seed, 0), inputs: w.inputs, out: out}
	if err := p.run(w.probes); err != nil {
		return err
	}
	finishPerLayer(out)
	return nil
}
