// Command corebench measures the simulator's hot paths and records the
// before/after effect of the throughput pass: the incremental windowed
// ECDF versus the legacy per-slot O(n log n) rebuild, and the memoized
// trace cache versus regenerating every trace. Results land in a JSON
// file (default BENCH_core.json) so `make bench-core` leaves a
// committed record and `make check` (via scripts/perfgate.sh) can
// assert the speedups have not regressed.
//
// Singles report the current implementation's ns/op and allocs/op for
// the core operations: the region tick, the client's per-slot market
// evaluation, the Prop. 5 persistent bid, and the end-to-end Table 3
// macro run. Pairs compare the legacy implementation (rebuild / cache
// off) against the shipped one (incremental / cache on) as the median
// of per-rep paired differences, obsbench-style: each rep runs both
// sides back to back in alternating order so machine drift cancels.
//
// The gate is ratio-based and therefore machine-independent: the
// committed report's optimized/baseline ratios are the contract, and
// -gate fails when a fresh measurement's ratio is more than -tolerance
// worse, when the market.slot_ecdf speedup drops below -min-speedup,
// or when client.market exceeds the -max-market-allocs /
// -max-market-bytes ceilings — the live quote window must keep the
// per-slot market fetch allocation-free up to the region tick's own
// bookkeeping.
//
// Usage:
//
//	corebench -out BENCH_core.json            # full measurement
//	corebench -quick -gate BENCH_core.json    # CI regression gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/client"
	"repro/internal/cloud"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/experiments"
	"repro/internal/instances"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// historySlots matches the experiments package: the two-month history
// window every client warms up through, in five-minute slots.
const historySlots = 61 * 288

// benchDays sizes the benchmark traces: the two-month history plus
// nine days of headroom to tick through.
const benchDays = 70

// Result is one benchmark measurement (fastest of -reps).
type Result struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Pair compares the legacy implementation of an operation against the
// shipped one. DeltaNsPerOp is the median of the per-rep paired
// differences (baseline − optimized, positive = optimized is faster);
// SpeedupX and Ratio are baseline/optimized and its inverse, computed
// from each side's fastest rep. Ratio is what the gate tracks: it is
// dimensionless, so a committed report from one machine constrains
// runs on another.
type Pair struct {
	Name         string  `json:"name"`
	Macro        bool    `json:"macro,omitempty"`
	Baseline     Result  `json:"baseline"`
	Optimized    Result  `json:"optimized"`
	DeltaNsPerOp float64 `json:"delta_ns_per_op"`
	SpeedupX     float64 `json:"speedup_x"`
	Ratio        float64 `json:"ratio"`
}

// Report is the BENCH_core.json document.
type Report struct {
	Singles []Result `json:"singles"`
	Pairs   []Pair   `json:"pairs"`
}

var reps = flag.Int("reps", 5, "repetitions per benchmark side (median paired delta wins)")

// resetShared restores every piece of package-level state a benchmark
// can observe — today that is the trace memo — to one canonical
// configuration before each repetition. Without this, rep k of one
// benchmark runs against whatever cache contents rep k−1 of another
// left behind, and the fastest-of-reps numbers drift with benchmark
// order. Benchmarks that measure a specific memo configuration
// (table3Baseline, table3Optimized) re-establish their own state on
// top; everyone else gets the shipped default, warm from its own first
// iteration only.
func resetShared() {
	trace.SetMemoCapacity(64)
	trace.ResetMemo()
}

func better(best Result, r testing.BenchmarkResult, first bool) Result {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	if first || ns < best.NsPerOp {
		best.N = r.N
		best.NsPerOp = ns
		best.AllocsPerOp = r.AllocsPerOp()
		best.BytesPerOp = r.AllocedBytesPerOp()
	}
	return best
}

func nsPerOp(r testing.BenchmarkResult) float64 {
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// single measures one operation, fastest-of-reps.
func single(name string, fn func(b *testing.B)) Result {
	res := Result{Name: name}
	for i := 0; i < *reps; i++ {
		resetShared()
		res = better(res, testing.Benchmark(fn), i == 0)
	}
	return res
}

// pair measures both sides rep times as a paired-difference design;
// see cmd/obsbench for the rationale (pairing cancels thermal and
// frequency drift; the median sheds polluted reps).
func pair(name string, baseline, optimized func(b *testing.B)) Pair {
	a := Result{Name: name + "/baseline"}
	b := Result{Name: name + "/optimized"}
	deltas := make([]float64, 0, *reps)
	run := func(fn func(b *testing.B)) testing.BenchmarkResult {
		resetShared()
		return testing.Benchmark(fn)
	}
	for i := 0; i < *reps; i++ {
		var ra, rb testing.BenchmarkResult
		if i%2 == 0 {
			ra, rb = run(baseline), run(optimized)
		} else {
			rb, ra = run(optimized), run(baseline)
		}
		a = better(a, ra, i == 0)
		b = better(b, rb, i == 0)
		deltas = append(deltas, nsPerOp(ra)-nsPerOp(rb))
	}
	p := Pair{Name: name, Baseline: a, Optimized: b, DeltaNsPerOp: median(deltas)}
	if b.NsPerOp > 0 {
		p.SpeedupX = a.NsPerOp / b.NsPerOp
	}
	if a.NsPerOp > 0 {
		p.Ratio = b.NsPerOp / a.NsPerOp
	}
	return p
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// benchRegion builds a fresh benchmark region (the memo makes the
// repeated trace generation nearly free).
func benchRegion() (*cloud.Region, error) {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: benchDays, Seed: 1})
	if err != nil {
		return nil, err
	}
	return cloud.NewRegion(tr)
}

// benchTick: one region slot advance — admissions, outbids, billing —
// with no client attached. The region is rebuilt off the clock when
// its trace runs out.
func benchTick(b *testing.B) {
	region, err := benchRegion()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if region.Now() >= region.Horizon()-2 {
			b.StopTimer()
			if region, err = benchRegion(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := region.Tick(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClient builds a client warmed through the two-month history.
func benchClient() (*client.Client, error) {
	region, err := benchRegion()
	if err != nil {
		return nil, err
	}
	cl, err := client.New(region)
	if err != nil {
		return nil, err
	}
	if err := cl.Skip(historySlots); err != nil {
		return nil, err
	}
	return cl, nil
}

// benchMarket: the client's full per-slot market step — advance one
// slot, fetch the price-history view, update the incremental ECDF, and
// snapshot the market — exactly what every supervised slot of a
// persistent job pays.
func benchMarket(b *testing.B) {
	cl, err := benchClient()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cl.Region.Now() >= cl.Region.Horizon()-2 {
			b.StopTimer()
			if cl, err = benchClient(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		if err := cl.Skip(1); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Market(instances.R3XLarge); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPrices returns the benchmark trace's raw price series.
func benchPrices(b *testing.B) []float64 {
	tr, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: benchDays, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tr.Prices
}

// evalMarket prices the §7.1 persistent job against an ECDF — the
// shared downstream work of both slot_ecdf arms.
func evalMarket(b *testing.B, e *dist.Empirical) {
	m := core.Market{Price: e, OnDemand: 0.35}
	if _, err := m.PersistentBid(core.Job{Exec: 1, Recovery: timeslot.Seconds(30)}); err != nil {
		b.Fatal(err)
	}
}

// slotECDFBaseline is the legacy per-slot market evaluation: rebuild
// the two-month empirical distribution from scratch (copy + sort +
// moments + histogram) every slot, then bid.
func slotECDFBaseline(b *testing.B) {
	prices := benchPrices(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hi := historySlots + i%(len(prices)-historySlots)
		e, err := dist.NewEmpirical(prices[hi-historySlots:hi], 0)
		if err != nil {
			b.Fatal(err)
		}
		evalMarket(b, e)
	}
}

// slotECDFOptimized is the shipped path: push the one new price into
// the incremental windowed ECDF, snapshot, and bid.
func slotECDFOptimized(b *testing.B) {
	prices := benchPrices(b)
	win, err := dist.NewWindowedECDF(historySlots, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := win.Fill(prices[:historySlots]); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := win.Push(prices[historySlots+i%(len(prices)-historySlots)]); err != nil {
			b.Fatal(err)
		}
		e, err := win.Snapshot(0)
		if err != nil {
			b.Fatal(err)
		}
		evalMarket(b, e)
	}
}

// benchPersistentBid: the Prop. 5 optimal persistent bid against a
// fixed two-month ECDF.
func benchPersistentBid(b *testing.B) {
	prices := benchPrices(b)
	e, err := dist.NewEmpirical(prices[:historySlots], 0)
	if err != nil {
		b.Fatal(err)
	}
	m := core.Market{Price: e, OnDemand: 0.35}
	job := core.Job{Exec: 1, Recovery: timeslot.Seconds(30)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.PersistentBid(job); err != nil {
			b.Fatal(err)
		}
	}
}

// table3 runs the end-to-end Table 3 experiment once; the fixed seed
// keeps both arms of the macro pair on identical work.
func table3(b *testing.B) {
	if _, err := experiments.Table3(experiments.Opts{Seed: 1, Runs: 1}); err != nil {
		b.Fatal(err)
	}
}

// table3Baseline disables the trace memo: every repetition regenerates
// every trace, the pre-pass behavior.
func table3Baseline(b *testing.B) {
	trace.SetMemoCapacity(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table3(b)
	}
}

// table3Optimized measures the shipped steady state: memo on and warm,
// the configuration every sweep and repeated invocation runs under.
func table3Optimized(b *testing.B) {
	trace.SetMemoCapacity(64)
	table3(b) // warm the cache off the clock
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table3(b)
	}
}

// table3Single is the committed current-implementation number: memo on.
func table3Single(b *testing.B) {
	trace.SetMemoCapacity(64)
	table3(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table3(b)
	}
}

func measure() Report {
	return Report{
		Singles: []Result{
			single("core.tick", benchTick),
			single("client.market", benchMarket),
			single("core.persistent_bid", benchPersistentBid),
			single("experiments.table3", table3Single),
		},
		Pairs: []Pair{
			pair("market.slot_ecdf", slotECDFBaseline, slotECDFOptimized),
			func() Pair {
				p := pair("experiments.table3", table3Baseline, table3Optimized)
				p.Macro = true
				return p
			}(),
		},
	}
}

// findPair returns the named pair from a report.
func findPair(rep Report, name string) (Pair, bool) {
	for _, p := range rep.Pairs {
		if p.Name == name {
			return p, true
		}
	}
	return Pair{}, false
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output JSON path (- for stdout)")
	quick := flag.Bool("quick", false, "short benchtime for CI (noisier, much faster)")
	gate := flag.String("gate", "", "committed BENCH_core.json to gate against (ratio regression check)")
	tolerance := flag.Float64("tolerance", 0.10, "gate: allowed relative worsening of a pair's optimized/baseline ratio")
	minSpeedup := flag.Float64("min-speedup", 2.0, "fail if market.slot_ecdf speedup drops below this factor")
	maxMarketAllocs := flag.Int64("max-market-allocs", -1, "fail if client.market allocs/op exceeds this ceiling (-1 = off)")
	maxMarketBytes := flag.Int64("max-market-bytes", -1, "fail if client.market bytes/op exceeds this ceiling (-1 = off)")
	testing.Init()
	flag.Parse()
	if *quick {
		if err := flag.Set("test.benchtime", "50ms"); err != nil {
			fatalf("setting benchtime: %v", err)
		}
		if *reps == 5 {
			*reps = 3
		}
	}
	rep := measure()

	failed := false
	for _, s := range rep.Singles {
		fmt.Printf("%-24s %14.1f ns/op %8d allocs/op %12d B/op\n",
			s.Name, s.NsPerOp, s.AllocsPerOp, s.BytesPerOp)
	}
	for _, p := range rep.Pairs {
		fmt.Printf("%-24s baseline %14.1f ns/op   optimized %14.1f ns/op   speedup %5.2fx   allocs %d -> %d\n",
			p.Name, p.Baseline.NsPerOp, p.Optimized.NsPerOp, p.SpeedupX,
			p.Baseline.AllocsPerOp, p.Optimized.AllocsPerOp)
	}
	if p, ok := findPair(rep, "market.slot_ecdf"); ok && p.SpeedupX < *minSpeedup {
		fmt.Printf("FAIL: market.slot_ecdf speedup %.2fx is below the %.1fx bar\n", p.SpeedupX, *minSpeedup)
		failed = true
	}
	for _, s := range rep.Singles {
		if s.Name != "client.market" {
			continue
		}
		if *maxMarketAllocs >= 0 && s.AllocsPerOp > *maxMarketAllocs {
			fmt.Printf("FAIL: client.market allocs/op %d exceeds the %d ceiling\n", s.AllocsPerOp, *maxMarketAllocs)
			failed = true
		}
		if *maxMarketBytes >= 0 && s.BytesPerOp > *maxMarketBytes {
			fmt.Printf("FAIL: client.market bytes/op %d exceeds the %d ceiling\n", s.BytesPerOp, *maxMarketBytes)
			failed = true
		}
	}
	if p, ok := findPair(rep, "experiments.table3"); ok {
		if p.SpeedupX < 1.0 {
			fmt.Printf("FAIL: experiments.table3 macro pair shows no improvement (%.2fx)\n", p.SpeedupX)
			failed = true
		}
		if p.Optimized.AllocsPerOp >= p.Baseline.AllocsPerOp {
			fmt.Printf("FAIL: experiments.table3 allocs/op did not drop (%d -> %d)\n",
				p.Baseline.AllocsPerOp, p.Optimized.AllocsPerOp)
			failed = true
		}
	}

	if *gate != "" {
		committed, err := os.ReadFile(*gate)
		if err != nil {
			fatalf("reading gate baseline: %v", err)
		}
		var base Report
		if err := json.Unmarshal(committed, &base); err != nil {
			fatalf("parsing gate baseline %s: %v", *gate, err)
		}
		for _, bp := range base.Pairs {
			cp, ok := findPair(rep, bp.Name)
			if !ok {
				fmt.Printf("FAIL: pair %s present in %s but not measured\n", bp.Name, *gate)
				failed = true
				continue
			}
			limit := bp.Ratio * (1 + *tolerance)
			status := "ok"
			if cp.Ratio > limit {
				status = "FAIL"
				failed = true
			}
			fmt.Printf("gate %-22s committed ratio %.4f   measured %.4f   limit %.4f   %s\n",
				bp.Name, bp.Ratio, cp.Ratio, limit, status)
		}
	}

	js, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatalf("encoding report: %v", err)
	}
	js = append(js, '\n')
	switch {
	case *gate != "":
		// Gate mode verifies against the committed record; it must not
		// overwrite it with a -quick measurement.
	case *out == "-":
		os.Stdout.Write(js)
	default:
		if err := os.WriteFile(*out, js, 0o644); err != nil {
			fatalf("writing %s: %v", *out, err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if failed {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "corebench: "+format+"\n", args...)
	os.Exit(1)
}
