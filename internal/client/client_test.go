package client

import (
	"math"
	"testing"

	"repro/internal/cloud"
	"repro/internal/instances"
	"repro/internal/job"
	"repro/internal/mapreduce"
	"repro/internal/timeslot"
	"repro/internal/trace"
)

// testRegion builds a two-market region from the calibrated
// generators: 62 days of history so a two-month window plus the run
// itself fit.
func testRegion(t *testing.T, seed int64) *cloud.Region {
	t.Helper()
	master, err := trace.Generate(instances.R3XLarge, trace.GenOptions{Days: 70, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	slave, err := trace.Generate(instances.C34XL, trace.GenOptions{Days: 70, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cloud.NewRegion(master, slave)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// newClient builds a client and advances past the warm-up so the
// price monitor has a meaningful window.
func newClient(t *testing.T, seed int64) *Client {
	t.Helper()
	c, err := New(testRegion(t, seed))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Skip(61 * 288); err != nil { // two months of history
		t.Fatal(err)
	}
	return c
}

var oneHour = job.Spec{ID: "job", Type: instances.R3XLarge, Exec: 1, Recovery: timeslot.Seconds(30)}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("nil region accepted")
	}
}

func TestMarketFromHistory(t *testing.T) {
	c := newClient(t, 3)
	m, err := c.Market(instances.R3XLarge)
	if err != nil {
		t.Fatal(err)
	}
	if m.OnDemand != 0.35 {
		t.Errorf("on-demand = %v", m.OnDemand)
	}
	// The ECDF covers the calibrated range.
	sup := m.Price.Support()
	if sup.Lo < 0.03-1e-9 || sup.Lo > 0.033 {
		t.Errorf("support low = %v", sup.Lo)
	}
	if _, err := c.Market("bogus"); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestRunOneTimeCompletesWithoutInterruption(t *testing.T) {
	c := newClient(t, 5)
	rep, err := c.RunOneTime(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed {
		t.Fatal("one-time job did not complete")
	}
	// §7.1: "None of our experiments were interrupted."
	if rep.Outcome.Interruptions != 0 {
		t.Errorf("interruptions = %d", rep.Outcome.Interruptions)
	}
	// ≈90% cheaper than on-demand.
	odCost := 0.35 * 1
	if save := 1 - rep.Outcome.Cost/odCost; save < 0.8 {
		t.Errorf("savings = %v", save)
	}
	// Measured cost close to the analytic prediction (Fig. 5's
	// "analytical predictions closely match").
	if rel := math.Abs(rep.Outcome.Cost-rep.Analytic.ExpectedCost) / rep.Analytic.ExpectedCost; rel > 0.25 {
		t.Errorf("measured %v vs analytic %v", rep.Outcome.Cost, rep.Analytic.ExpectedCost)
	}
}

func TestRunPersistentCheaperSlower(t *testing.T) {
	cOne := newClient(t, 7)
	one, err := cOne.RunOneTime(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !one.Outcome.Completed {
		t.Fatal("one-time run was interrupted on this seed; the comparison needs a surviving run")
	}
	cPer := newClient(t, 7) // identical region/history
	per, err := cPer.RunPersistent(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !per.Outcome.Completed {
		t.Fatal("persistent run did not complete")
	}
	if per.BidPrice > one.BidPrice {
		t.Errorf("persistent bid %v above one-time %v", per.BidPrice, one.BidPrice)
	}
	if per.Outcome.Cost > one.Outcome.Cost*1.05 {
		t.Errorf("persistent cost %v above one-time %v", per.Outcome.Cost, one.Outcome.Cost)
	}
	if per.Outcome.Completion < one.Outcome.Completion {
		t.Errorf("persistent completion %v below one-time %v",
			float64(per.Outcome.Completion), float64(one.Outcome.Completion))
	}
}

func TestRunPercentileBaseline(t *testing.T) {
	c := newClient(t, 9)
	rep, err := c.RunPercentile(oneHour, 90, cloud.Persistent)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strategy != "percentile-90" {
		t.Errorf("strategy = %q", rep.Strategy)
	}
	if !rep.Outcome.Completed {
		t.Error("percentile run did not complete")
	}
}

func TestRunFixedBid(t *testing.T) {
	c := newClient(t, 11)
	rep, err := c.RunFixedBid("best-offline", oneHour, 0.032, cloud.OneTime)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BidPrice != 0.032 {
		t.Errorf("bid = %v", rep.BidPrice)
	}
}

func TestRunOnDemandBaseline(t *testing.T) {
	c := newClient(t, 13)
	rep, err := c.RunOnDemand(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed || rep.Outcome.Interruptions != 0 {
		t.Fatal("on-demand must complete cleanly")
	}
	if math.Abs(rep.Outcome.Cost-0.35) > 1e-9 {
		t.Errorf("on-demand cost = %v, want 0.35", rep.Outcome.Cost)
	}
}

func TestSkipStopsAtTraceEnd(t *testing.T) {
	c, err := New(testRegion(t, 15))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Skip(1 << 30); err == nil {
		t.Error("Skip past the horizon must fail")
	}
}

func TestMapReduceSpecValidation(t *testing.T) {
	if _, err := (MapReduceSpec{}).ExecTime(); err == nil {
		t.Error("empty corpus accepted")
	}
	corpus, _ := mapreduce.GenerateCorpus(10, 100, 1)
	if _, err := (MapReduceSpec{Corpus: corpus}).ExecTime(); err == nil {
		t.Error("zero throughput accepted")
	}
	s := MapReduceSpec{Corpus: corpus, WordsPerHour: 500}
	ts, err := s.ExecTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(ts)-2) > 1e-12 {
		t.Errorf("ExecTime = %v, want 2", float64(ts))
	}
}

func TestPlanAndRunMapReduce(t *testing.T) {
	c := newClient(t, 17)
	corpus, err := mapreduce.GenerateCorpus(60, 250, 4) // 15000 words
	if err != nil {
		t.Fatal(err)
	}
	spec := MapReduceSpec{
		MasterType:   instances.R3XLarge,
		SlaveType:    instances.C34XL,
		Corpus:       corpus,
		WordsPerHour: 7500, // t_s = 2h
		Recovery:     timeslot.Seconds(30),
		Overhead:     timeslot.Seconds(60),
	}
	rep, err := c.RunMapReduce(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Result.Completed {
		t.Fatal("MapReduce run did not complete")
	}
	if rep.Plan.Workers < 2 {
		t.Errorf("workers = %d", rep.Plan.Workers)
	}
	// Functional output matches the oracle.
	want := mapreduce.CountWords(corpus.Docs)
	if len(rep.Result.Counts) != len(want) {
		t.Error("word count mismatch")
	}
	// On-demand baseline: spot is much cheaper, somewhat slower
	// (Fig. 7: ≈90% cheaper, ≈15% slower).
	cOD := newClient(t, 17)
	od, err := cOD.RunMapReduceOnDemand(spec, rep.Plan.Workers)
	if err != nil {
		t.Fatal(err)
	}
	if !od.Completed {
		t.Fatal("on-demand MapReduce did not complete")
	}
	save := 1 - rep.Result.TotalCost/od.TotalCost
	if save < 0.8 {
		t.Errorf("MapReduce savings = %v", save)
	}
	if float64(rep.Result.Completion) < float64(od.Completion) {
		t.Error("spot completion should not beat on-demand")
	}
	slowdown := float64(rep.Result.Completion)/float64(od.Completion) - 1
	if slowdown > 1.0 {
		t.Errorf("slowdown = %v, want modest", slowdown)
	}
	if _, err := cOD.RunMapReduceOnDemand(spec, 0); err == nil {
		t.Error("0 workers accepted")
	}
}

// TestReportLeaksAtTraceEnd: a run the trace cuts short still holds its
// resources, and the report says which; a run that finishes holds
// none.
func TestReportLeaksAtTraceEnd(t *testing.T) {
	nearEnd := func() *Client {
		c, err := New(testRegion(t, 17))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Skip(c.Region.Horizon() - 6); err != nil { // half an hour left
			t.Fatal(err)
		}
		return c
	}
	// A bid far below the floor waits, open, until the trace ends.
	rep, err := nearEnd().RunFixedBid("lowball", oneHour, 0.001, cloud.OneTime)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome.Completed || len(rep.LeakedRequests) != 1 || len(rep.LeakedInstances) != 0 {
		t.Errorf("open request at trace end: completed %v, leaked requests %v, instances %v",
			rep.Outcome.Completed, rep.LeakedRequests, rep.LeakedInstances)
	}
	// An on-demand hour started half an hour before the end is still
	// running when it comes.
	rep, err = nearEnd().RunOnDemand(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcome.Completed || len(rep.LeakedRequests) != 0 || len(rep.LeakedInstances) != 1 {
		t.Errorf("running instance at trace end: completed %v, leaked requests %v, instances %v",
			rep.Outcome.Completed, rep.LeakedRequests, rep.LeakedInstances)
	}
	rep, err = newClient(t, 17).RunOneTime(oneHour)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcome.Completed || rep.LeakedRequests != nil || rep.LeakedInstances != nil {
		t.Errorf("finished run: completed %v, leaked requests %v, instances %v",
			rep.Outcome.Completed, rep.LeakedRequests, rep.LeakedInstances)
	}
}
