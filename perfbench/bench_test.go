package main

import (
	"bytes"
	"encoding/json"
	"net/url"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/instances"
	"repro/internal/invariant"
	"repro/internal/serve"
)

// The output checks must bite: each corruption below is one the
// benchmark would otherwise report as a correct run.

func TestGoldenCheckRejectsPerturbedTable3Row(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", goldenDir, "table3.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRendering("table3", want, want); err != nil {
		t.Fatalf("identical rendering rejected: %v", err)
	}
	lines := strings.Split(string(want), "\n")
	row := 3 // a data row below the header and rule
	perturbed := strings.Replace(lines[row], "0.0", "0.1", 1)
	if perturbed == lines[row] {
		t.Fatalf("row %q has no price to perturb", lines[row])
	}
	lines[row] = perturbed
	if err := sameRendering("table3", want, []byte(strings.Join(lines, "\n"))); err == nil {
		t.Fatal("perturbed Table 3 row passed the golden check")
	}
}

func TestTable3CheckRejectsBidAboveOnDemand(t *testing.T) {
	res := experiments.Table3Result{Rows: []experiments.Table3Row{
		{Type: instances.R3XLarge, OnDemand: 0.35, OneTime: 0.04, Persistent10: 0.035, Persistent30: 0.036},
	}}
	if err := checkTable3(res); err != nil {
		t.Fatalf("sane row rejected: %v", err)
	}
	res.Rows[0].Persistent30 = 0.36
	if err := checkTable3(res); err == nil {
		t.Fatal("bid above on-demand passed")
	}
}

func TestFigure5CheckRejectsSpotAboveOnDemand(t *testing.T) {
	res := experiments.Fig5Result{Rows: []experiments.Fig5Row{
		{Type: instances.R3XLarge, MeasuredCost: 0.04, OnDemandCost: 0.35},
	}}
	if err := checkFigure5(res); err != nil {
		t.Fatalf("sane row rejected: %v", err)
	}
	res.Rows[0].MeasuredCost = 0.35
	if err := checkFigure5(res); err == nil {
		t.Fatal("spot cost equal to on-demand passed")
	}
}

func TestScheduleCheckRejectsForgedViolation(t *testing.T) {
	if err := checkSchedule(invariant.ScheduleResult{Index: 4}); err != nil {
		t.Fatalf("clean schedule rejected: %v", err)
	}
	forged := invariant.ScheduleResult{Index: 4, Violations: []invariant.Violation{
		{Checker: "billing-conservation", Slot: 600, Detail: "forged"},
	}}
	if err := checkSchedule(forged); err == nil {
		t.Fatal("forged violation passed")
	}
	if err := checkSchedule(invariant.ScheduleResult{Index: 4, Err: "boom"}); err == nil {
		t.Fatal("errored schedule passed")
	}
}

func TestQuoteCheckRejectsOutOfRangeBid(t *testing.T) {
	b := quoteBounds{floor: 0.03, ceiling: 0.35}
	body := func(tier string, price float64) []byte {
		resp := serve.QuoteResponse{Tier: tier, Quote: serve.Quote{Feasible: true, Price: price}}
		j, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	if _, err := checkQuote(200, body("fresh", 0.05), b); err != nil {
		t.Fatalf("sane quote rejected: %v", err)
	}
	if _, err := checkQuote(200, body("stale", 0.05), b); err != nil {
		t.Fatalf("stale quote rejected: %v", err)
	}
	if _, err := checkQuote(422, []byte(`{"outcome":"refused_infeasible"}`), b); err != nil {
		t.Fatalf("Eq. 14 refusal rejected: %v", err)
	}
	for name, c := range map[string]struct {
		status int
		body   []byte
	}{
		"above on-demand": {200, body("fresh", 0.36)},
		"below floor":     {200, body("fresh", 0.02)},
		"refuse tier":     {200, body("refuse", 0.05)},
		"undecodable":     {200, []byte("{")},
		"shed":            {429, []byte(`{"outcome":"shed_capacity"}`)},
	} {
		if _, err := checkQuote(c.status, c.body, b); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

// The request pool covers serve's default quote grid plus Table 3's
// jobs, and every request in it is one the server accepts.
func TestRequestPool(t *testing.T) {
	exec := []float64{0.5, 1, 24}
	rec := []float64{30.0 / 3600, 1800.0 / 3600}
	pool := requestPool(3, exec, rec)
	jobs := map[[2]float64]bool{}
	for _, j := range pool {
		u, err := url.Parse(j.path)
		if err != nil {
			t.Fatal(err)
		}
		req, err := serve.DecodeQuoteRequest(u.Query(), 1)
		if err != nil {
			t.Fatalf("%s: %v", j.path, err)
		}
		if req.ExecHours != j.execHours || req.RecoverySeconds != j.recoverySeconds {
			t.Fatalf("%s decodes to (%v h, %v s), pooled as (%v h, %v s)",
				j.path, req.ExecHours, req.RecoverySeconds, j.execHours, j.recoverySeconds)
		}
		jobs[[2]float64{j.execHours, j.recoverySeconds}] = true
	}
	// Grid: 3 one-time cells, 30 s under each job, 1800 s under 1 h
	// and 24 h only; Table 3 adds 1 h with 10 s.
	want := [][2]float64{{0.5, 0}, {1, 0}, {24, 0}, {0.5, 30}, {1, 30}, {24, 30}, {1, 1800}, {24, 1800}, {1, 10}}
	if len(jobs) != len(want) {
		t.Errorf("pool has %d distinct jobs, want %d: %v", len(jobs), len(want), jobs)
	}
	for _, w := range want {
		if !jobs[w] {
			t.Errorf("pool lacks job %v", w)
		}
	}
}

func TestOffGrid(t *testing.T) {
	j := quoteJob{execHours: 1, recoverySeconds: 30}
	for _, c := range []struct {
		exec, rec float64
		off       bool
	}{
		{1, 30.0 / 3600 * 3600, false}, // the grid value round-tripped through hours
		{1, 60, true},
		{2, 30, true},
	} {
		if got := offGrid(j, serve.QuoteResponse{ExecHours: c.exec, RecoverySeconds: c.rec}); got != c.off {
			t.Errorf("served (%v h, %v s): offGrid = %v, want %v", c.exec, c.rec, got, c.off)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{id: 1, name: "client", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, name: "handler", start: ms(10), end: ms(30)},
		{id: 3, parent: 1, name: "handler", start: ms(20), end: ms(50)},  // overlaps 2
		{id: 4, parent: 1, name: "handler", start: ms(90), end: ms(120)}, // outlives 1
		{id: 5, name: "other", start: ms(0), end: ms(7)},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 ms.
	for id, want := range map[int64]time.Duration{1: ms(50), 2: ms(20), 3: ms(30), 4: ms(30), 5: ms(7)} {
		if self[id] != want {
			t.Errorf("span %d: self time %v, want %v", id, self[id], want)
		}
	}
}

func TestFold(t *testing.T) {
	const in = "repro/internal/"
	samples := []sample{
		// The ablation's hot stack: dist leaf under market under core.
		{weight: 6, stack: []string{"math.archExp", in + "dist.Pareto.Quantile",
			in + "market.(*EquilibriumPriceDist).PartialMean.func1", in + "dist.adaptiveSimpson",
			in + "market.(*EquilibriumPriceDist).PartialMean", in + "core.Market.PersistentBid",
			in + "experiments.AblationRecovery", "main.main", "runtime.main"}},
		// An unlisted module (obs) folds onto the layer that called it.
		{weight: 1, stack: []string{in + "obs.(*Counter).Add", in + "serve.(*Server).finish",
			in + "serve.(*Server).Quote", "runtime.goexit"}},
		{weight: 1, stack: []string{"syscall.Syscall", "internal/poll.(*FD).Read", "net.(*conn).Read", "runtime.goexit"}},
		{weight: 1, stack: []string{"runtime.scanobject", "runtime.gcBgMarkWorker", "runtime.goexit"}},
		{weight: 1, stack: []string{"encoding/json.Unmarshal", "main.checkQuote", "runtime.goexit"}},
	}
	self, incl := fold(samples)
	for row, want := range map[string]float64{"dist": 0.6, "serve": 0.1, "net": 0.1, "runtime": 0.1, "other": 0.1} {
		if d := self[row] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("self[%s] = %v, want %v", row, self[row], want)
		}
	}
	total := 0.0
	for _, v := range self {
		total += v
	}
	if d := total - 1; d > 1e-12 || d < -1e-12 {
		t.Errorf("self shares sum to %v, want 1", total)
	}
	for m, want := range map[string]float64{"dist": 0.6, "market": 0.6, "core": 0.6, "experiments": 0.6, "serve": 0.1} {
		if d := incl[m] - want; d > 1e-12 || d < -1e-12 {
			t.Errorf("inclusive[%s] = %v, want %v", m, incl[m], want)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		if s.weight <= 0 {
			t.Fatalf("sample with weight %d", s.weight)
		}
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, "spinForProfile") {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("no sample inside spinForProfile among %d samples", len(samples))
	}
}

// TestBenchmarkJSONMatchesReport holds BENCHMARK.json's metric lists to
// the names and units the benchmark reports.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &def); err != nil {
		t.Fatal(err)
	}
	var e2e, layers [][2]string
	for _, m := range def.EndToEnd {
		e2e = append(e2e, [2]string{m.Name, m.Unit})
	}
	for _, m := range def.PerLayer {
		layers = append(layers, [2]string{m.Name, m.Unit})
	}
	if !sameSet(e2e, endToEnd) {
		t.Errorf("end_to_end %v, benchmark reports %v", e2e, endToEnd)
	}
	if !sameSet(layers, perLayerNames()) {
		t.Errorf("per_layer %v, benchmark reports %v", layers, perLayerNames())
	}
}

func sameSet(a, b [][2]string) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[[2]string]bool{}
	for _, x := range a {
		in[x] = true
	}
	for _, x := range b {
		if !in[x] {
			return false
		}
	}
	return true
}

func TestLatencyHistQuantiles(t *testing.T) {
	var h latencyHist
	for us := 1; us <= 1000; us++ {
		h.add(float64(us))
	}
	for q, want := range map[float64]float64{0.5: 500, 0.99: 990} {
		if got := h.quantile(q); got < want*0.99 || got > want*1.01 {
			t.Errorf("quantile(%v) = %v, want %v ± 1%%", q, got, want)
		}
	}
}
