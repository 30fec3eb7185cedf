package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/instances"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The quote workload runs the spotbidd stack in-process: spotbidd's
// default market, window, rebuild cadence and warm-up, served through
// serve.NewHandler on a loopback listener. Admission is the one change:
// its buckets are raised above the offered load, because the default
// buckets cap the server at 3,500 requests/s by configuration and the
// benchmark would time that constant.
const (
	quoteType    = instances.R3XLarge
	feedDays     = 70  // spotbidd -days
	warmupSlots  = 288 // spotbidd -warmup
	feedInterval = 10 * time.Millisecond
	poolSize     = 4096 // requests per pass
	setupReps    = 9
	loadWarmup   = 2 * time.Second
	spanHeader   = "X-Perfbench-Span"
)

// quoteBoundsFor is the range every served bid must fall in.
func quoteBoundsFor(t instances.Type) (quoteBounds, error) {
	cal, err := trace.CalibrationFor(t)
	if err != nil {
		return quoteBounds{}, err
	}
	return quoteBounds{floor: cal.Provider.PMin, ceiling: instances.MustLookup(t).OnDemand}, nil
}

// quoteJob is one pooled request and the job it asks about.
type quoteJob struct {
	path            string
	execHours       float64
	recoverySeconds float64 // 0: one-time
}

// requestPool is the seeded request mix. Its jobs are the cells of the
// server's quote grid (every execution time, one-time and with each
// recovery time shorter than the job) plus Table 3's three jobs: one
// hour, one-time and with t_r = 10 s and 30 s. Each request draws a job
// and a priority class uniformly. Every request is well-formed, so each
// reply is a quote (200) or an Eq. 14 refusal (422).
func requestPool(seed int64, execGridHours, recGridHours []float64) []quoteJob {
	jobs := []quoteJob{{execHours: 1}, {execHours: 1, recoverySeconds: 10}, {execHours: 1, recoverySeconds: 30}}
	for _, e := range execGridHours {
		jobs = append(jobs, quoteJob{execHours: e})
		for _, r := range recGridHours {
			if r < e {
				jobs = append(jobs, quoteJob{execHours: e, recoverySeconds: math.Round(r * 3600)})
			}
		}
	}
	classes := []string{"interactive", "standard", "batch"}
	rng := rand.New(rand.NewSource(seed))
	pool := make([]quoteJob, poolSize)
	for i := range pool {
		j := jobs[rng.Intn(len(jobs))]
		v := url.Values{}
		v.Set("type", string(quoteType))
		v.Set("exec_hours", strconv.FormatFloat(j.execHours, 'g', -1, 64))
		v.Set("class", classes[rng.Intn(len(classes))])
		if j.recoverySeconds > 0 {
			v.Set("recovery_seconds", strconv.FormatFloat(j.recoverySeconds, 'g', -1, 64))
		}
		j.path = "/v1/quote?" + v.Encode()
		pool[i] = j
	}
	return pool
}

// gridPool is requestPool over a running server's quote grid.
func gridPool(seed int64, srv *serve.Server) []quoteJob {
	t := srv.Table(srv.Keys()[0])
	return requestPool(seed, t.ExecGrid, t.RecGrid)
}

// offGrid reports whether a served quote answers for another job than
// the one requested (the server rounds a job up onto its grid).
func offGrid(j quoteJob, r serve.QuoteResponse) bool {
	differ := func(a, b float64) bool { return math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(b)) }
	return differ(r.ExecHours, j.execHours) || differ(r.RecoverySeconds, j.recoverySeconds)
}

func nowMicros() int64 { return time.Now().UnixMicro() }

// stack is one running spotbidd-equivalent server.
type stack struct {
	srv      *serve.Server
	hs       *http.Server
	base     string
	served   chan error
	stop     chan struct{}
	feedDone chan error
}

// startStack builds the server as spotbidd does and returns once
// /readyz first answers 200, with the time that took from serve.New.
// rec and met are nil on an untraced run.
//
// Readiness includes one feed tick after listen: the warm-up ingests
// slots 0–287, MinSamples (288) is reached at slot 287, and 287 is not
// a multiple of RebuildEvery (12), so no table exists until the feed
// ticker delivers slot 288. spotbidd's default -warmup 288 has the same
// gap; the benchmark times it as it is.
func startStack(seed int64, rec *recorder, met *obs.Registry) (*stack, time.Duration, error) {
	trace.ResetMemo() // a fresh process starts with a cold memo
	start := time.Now()
	srv, err := serve.New(serve.Config{
		Types:     []instances.Type{quoteType},
		Metrics:   met,
		NowMicros: nowMicros,
		Admission: serve.AdmitConfig{
			RatePerSec: [serve.NumClasses]float64{1e12, 1e12, 1e12},
			Burst:      [serve.NumClasses]float64{1e12, 1e12, 1e12},
		},
	})
	if err != nil {
		return nil, 0, err
	}
	tr, err := trace.Generate(quoteType, trace.GenOptions{Days: feedDays, Seed: seed, Metrics: met})
	if err != nil {
		return nil, 0, err
	}
	key := srv.Keys()[0]
	ingest := func(slot int) error {
		srv.SetSlot(slot)
		t0 := time.Now()
		if err := srv.Ingest(key, slot, tr.At(slot%tr.Len())); err != nil {
			return err
		}
		t1 := time.Now()
		built := srv.MaybeRebuild(slot)
		t2 := time.Now()
		if rec != nil {
			rec.add(rec.newID(), 0, "serve.ingest", t0, t1)
			name := "serve.maybe_rebuild"
			for _, b := range built {
				if b.Event == serve.BuildOK {
					name = "serve.rebuild"
				}
			}
			rec.add(rec.newID(), 0, name, t1, t2)
		}
		return nil
	}
	slot := 0
	for ; slot < warmupSlots; slot++ {
		if err := ingest(slot); err != nil {
			return nil, 0, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	var h http.Handler = serve.NewHandler(srv, nowMicros)
	if rec != nil {
		h = spanHandler(h, rec)
	}
	st := &stack{
		srv:      srv,
		hs:       &http.Server{Handler: h},
		base:     "http://" + ln.Addr().String(),
		served:   make(chan error, 1),
		stop:     make(chan struct{}),
		feedDone: make(chan error, 1),
	}
	go func() { st.served <- st.hs.Serve(ln) }()
	go func() {
		tick := time.NewTicker(feedInterval)
		defer tick.Stop()
		for {
			select {
			case <-st.stop:
				st.feedDone <- nil
				return
			case <-tick.C:
				if err := ingest(slot); err != nil {
					st.feedDone <- err
					return
				}
				slot++
			}
		}
	}()
	if err := st.awaitReady(); err != nil {
		st.close()
		return nil, 0, err
	}
	return st, time.Since(start), nil
}

// awaitReady polls /readyz until it answers 200 (10 s at most).
func (st *stack) awaitReady() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	c := &http.Client{Transport: tr}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(st.base + "/readyz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
	return errors.New("server not ready after 10s")
}

// close stops the feed and the HTTP server and waits for both.
func (st *stack) close() error {
	close(st.stop)
	feedErr := <-st.feedDone
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := st.hs.Shutdown(ctx)
	if serr := <-st.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if feedErr != nil {
		return fmt.Errorf("market feed: %w", feedErr)
	}
	return err
}

// spanHandler records a span around every handler call, linked to the
// client's span by the request header.
func spanHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		rec.add(rec.newID(), parent, "serve.handler", start, time.Now())
	})
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	latency   latencyHist   // client-side µs of every measured quote
	window    time.Duration // the measured part of the phase
	passes    []float64     // seconds per poolSize measured quotes
	attempted int
	failures  []string
	// Replies by kind, over every checked quote.
	ok, refused, offGrid int
}

// load drives the stack with one closed-loop client per CPU on
// keep-alive connections for d. Quotes sent after the first loadWarmup
// are measured; every quote is checked.
func load(st *stack, pool []quoteJob, b quoteBounds, d time.Duration, rec *recorder) loadResult {
	clients := runtime.NumCPU()
	tr := &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}

	var (
		next      atomic.Int64
		measuring atomic.Bool
		stop      atomic.Bool
		counted   atomic.Int64
		mu        sync.Mutex
		res       loadResult
		bounds    []time.Time
		wg        sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat := new(latencyHist)
			var fails []string
			attempted, ok, refused, off := 0, 0, 0, 0
			var body bytes.Buffer
			for !stop.Load() {
				i := next.Add(1) - 1
				attempted++
				req, err := http.NewRequest(http.MethodGet, st.base+pool[i%poolSize].path, nil)
				if err != nil {
					fails = append(fails, err.Error())
					continue
				}
				id := rec.newID()
				if rec != nil {
					req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
				}
				measured := measuring.Load()
				t0 := time.Now()
				resp, err := hc.Do(req)
				if err != nil {
					fails = append(fails, err.Error())
					continue
				}
				body.Reset()
				_, err = body.ReadFrom(resp.Body)
				resp.Body.Close()
				t1 := time.Now()
				if err != nil {
					fails = append(fails, err.Error())
					continue
				}
				rec.add(id, 0, "client.quote", t0, t1)
				qr, err := checkQuote(resp.StatusCode, body.Bytes(), b)
				switch {
				case err != nil:
					fails = append(fails, err.Error())
				case resp.StatusCode == http.StatusOK:
					ok++
					if offGrid(pool[i%poolSize], qr) {
						off++
					}
				default:
					refused++
				}
				if measured && measuring.Load() {
					lat.add(float64(t1.Sub(t0)) / 1e3)
					if k := counted.Add(1); k%poolSize == 0 {
						mu.Lock()
						bounds = append(bounds, t1)
						mu.Unlock()
					}
				}
			}
			mu.Lock()
			res.latency.merge(lat)
			res.failures = append(res.failures, fails...)
			res.attempted += attempted
			res.ok += ok
			res.refused += refused
			res.offGrid += off
			mu.Unlock()
		}()
	}
	time.Sleep(loadWarmup)
	start := time.Now()
	measuring.Store(true)
	time.Sleep(d - loadWarmup)
	measuring.Store(false)
	res.window = time.Since(start)
	stop.Store(true)
	wg.Wait()
	prev := start
	for _, t := range bounds {
		res.passes = append(res.passes, t.Sub(prev).Seconds())
		prev = t
	}
	return res
}

// latencyHist counts latencies in log-spaced buckets 0.5% wide, from
// 1 µs up; quantiles interpolate within a bucket. A fixed-size
// histogram keeps the benchmark's memory flat however many quotes a
// run completes, so peak RSS does not follow throughput.
type latencyHist [histBuckets]uint32

const histBuckets = 4096 // 1.005^4096 µs ≈ 12 minutes

var histStep = math.Log(1.005)

func (h *latencyHist) add(us float64) {
	b := 0
	if us > 1 {
		b = min(int(math.Log(us)/histStep), histBuckets-1)
	}
	h[b]++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o {
		h[i] += c
	}
}

func (h *latencyHist) total() int {
	n := 0
	for _, c := range h {
		n += int(c)
	}
	return n
}

// quantile returns the q-quantile in µs, placing the rank inside its
// bucket by log-linear interpolation.
func (h *latencyHist) quantile(q float64) float64 {
	rank := q * float64(h.total())
	cum := 0.0
	for b, c := range h {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			frac := (rank - cum) / float64(c)
			return math.Exp((float64(b) + frac) * histStep)
		}
		cum += float64(c)
	}
	return 0
}

// runQuote measures the quote workload for the run's budget.
func runQuote(cfg runConfig) (*outcome, error) {
	start := time.Now()
	b, err := quoteBoundsFor(quoteType)
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	if cfg.traced {
		return out, tracedQuote(cfg, out, b, start)
	}

	var setups []float64
	var st *stack
	for i := 0; i < setupReps; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return nil, err
			}
		}
		runtime.GC() // every set-up starts from the same heap
		var d time.Duration
		if st, d, err = startStack(cfg.seed, nil, nil); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	lr := load(st, gridPool(cfg.seed, st.srv), b, cfg.budget-time.Since(start)-time.Second, nil)
	if err := st.close(); err != nil {
		return nil, err
	}
	out.attempted, out.failures = lr.attempted, lr.failures
	if len(lr.passes) == 0 {
		return nil, fmt.Errorf("load completed no full pass of %d quotes", poolSize)
	}
	out.set("setup_s", "s", median(setups))
	out.set("run_s", "s", median(lr.passes))
	n := lr.latency.total()
	out.set("op_p50_us", "us", lr.latency.quantile(0.5))
	out.set("op_p90_us", "us", lr.latency.quantile(0.9))
	out.set("ops_per_s", "1/s", float64(n)/lr.window.Seconds())
	fmt.Printf("# quote: %d measured quotes over %.2fs, %d passes of %d\n",
		n, lr.window.Seconds(), len(lr.passes), poolSize)
	return out, nil
}

// tracedQuote is the per-layer run: an untraced load phase, then a
// traced one on a fresh stack with spans, the server's metrics
// registry and a CPU profile attached, then the serve and dist probes.
func tracedQuote(cfg runConfig, out *outcome, b quoteBounds, start time.Time) error {
	const probeReserve = 3 * time.Second
	phase := (cfg.budget - probeReserve) / 2
	absorb := func(lr loadResult) {
		out.attempted += lr.attempted
		out.failures = append(out.failures, lr.failures...)
	}

	st, _, err := startStack(cfg.seed, nil, nil)
	if err != nil {
		return err
	}
	pool := gridPool(cfg.seed, st.srv)
	plain := load(st, pool, b, phase-time.Since(start), nil)
	absorb(plain)
	if err := st.close(); err != nil {
		return err
	}

	rec := newRecorder()
	met := obs.New()
	st, _, err = startStack(cfg.seed, rec, met)
	if err != nil {
		return err
	}
	hits, miss := trace.MemoStats() // startStack reset the memo: one set-up's calls
	var prof bytes.Buffer
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		st.close()
		return err
	}
	traced := load(st, pool, b, phase, rec)
	pprof.StopCPUProfile()
	runtime.ReadMemStats(&ms1)
	absorb(traced)
	if len(plain.passes) == 0 || len(traced.passes) == 0 {
		st.close()
		return fmt.Errorf("a load phase completed no full pass of %d quotes; raise --seconds", poolSize)
	}
	serveProbes(out, st.srv, pool)
	replies := float64(traced.ok + traced.refused)
	if replies > 0 {
		out.set("serve.ok_share", "ratio", float64(traced.ok)/replies)
		out.set("serve.refused_share", "ratio", float64(traced.refused)/replies)
		out.set("serve.offgrid_share", "ratio", float64(traced.offGrid)/replies)
	}
	if err := st.close(); err != nil {
		return err
	}

	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	setCPUShares(out, samples)
	spans := rec.spans()
	self := selfTimes(spans)
	var httpSelf []float64
	for _, s := range spans {
		if s.name == "client.quote" {
			httpSelf = append(httpSelf, float64(self[s.id])/1e3)
		}
	}
	out.set("serve.client_p99_us", "us", quantile(durations(spans, "client.quote"), 0.99)/1e3)
	handler := durations(spans, "serve.handler")
	out.set("serve.handler_us", "us", median(handler)/1e3)
	out.set("serve.handler_p99_us", "us", quantile(handler, 0.99)/1e3)
	out.set("serve.http_us", "us", median(httpSelf))
	out.set("serve.ingest_us", "us", median(durations(spans, "serve.ingest"))/1e3)
	out.set("serve.rebuild_ms", "ms", median(durations(spans, "serve.rebuild"))/1e6)
	out.set("serve.builds", "count", float64(met.CounterValue("serve.builds")))
	out.set("serve.table_swaps", "count", float64(met.CounterValue("serve.table_swaps")))
	fresh := float64(met.CounterValue("serve.outcome." + serve.OutcomeServedFresh.String()))
	stale := float64(met.CounterValue("serve.outcome." + serve.OutcomeServedStale.String()))
	if fresh+stale > 0 {
		out.set("serve.fresh_ratio", "ratio", fresh/(fresh+stale))
	}
	calls := hits + miss
	out.set("trace.generate_calls", "count", float64(calls))
	if calls > 0 {
		out.set("trace.memo_hit_ratio", "ratio", float64(hits)/float64(calls))
	}
	out.set("trace.slots_generated", "count", float64(met.CounterValue("trace.slots_generated")))
	passes := float64(traced.latency.total()) / poolSize
	out.set("mem.alloc_mb", "MB", float64(ms1.TotalAlloc-ms0.TotalAlloc)/passes/(1<<20))
	out.set("mem.gc_cycles", "count", float64(ms1.NumGC-ms0.NumGC)/passes)
	out.set("bench.tracing_overhead", "ratio", median(traced.passes)/median(plain.passes)-1)

	p := &prober{seed: cfg.seed, inputs: traceSet{types: []instances.Type{quoteType}, days: feedDays}, out: out}
	if err := p.run(func(p *prober) { p.ecdfLayers() }); err != nil {
		return err
	}
	finishPerLayer(out)
	return nil
}

// serveProbes times the serving layers' public functions on the
// workload's request pool against the running server: request
// decoding, the in-process quote, and the bytes one handler call
// allocates.
func serveProbes(out *outcome, srv *serve.Server, pool []quoteJob) {
	vals := make([]url.Values, len(pool))
	reqs := make([]*http.Request, len(pool))
	for i, j := range pool {
		u, err := url.Parse(j.path)
		if err != nil {
			continue
		}
		vals[i] = u.Query()
		reqs[i], _ = http.NewRequest(http.MethodGet, j.path, nil)
	}
	decoded := make([]serve.QuoteRequest, len(pool))
	now := nowMicros()
	start := time.Now()
	for i, v := range vals {
		decoded[i], _ = serve.DecodeQuoteRequest(v, now)
	}
	out.set("serve.decode_ns", "ns", float64(time.Since(start))/float64(len(vals)))
	start = time.Now()
	for _, r := range decoded {
		srv.Quote(r)
	}
	out.set("serve.quote_ns", "ns", float64(time.Since(start))/float64(len(decoded)))

	h := serve.NewHandler(srv, nowMicros)
	w := &discardWriter{h: http.Header{}}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range reqs {
		clear(w.h)
		h.ServeHTTP(w, r)
	}
	runtime.ReadMemStats(&m1)
	out.set("serve.handler_alloc_b", "B", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(len(reqs)))
}

// discardWriter is a reusable ResponseWriter that drops the body, so
// the allocation probe counts the handler's bytes only.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}
