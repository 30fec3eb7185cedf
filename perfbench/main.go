// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload (paper, chaos or quote) for a fixed number of
// seconds, checks the program's outputs, and prints one JSON result
// line as the last line of standard output.
//
// With -trace 0 the result holds the end-to-end metrics, measured with
// nothing attached to the program. With -trace 1 the same workload runs
// again with spans, the program's metrics registry and a CPU profile
// attached, and the result holds the per-layer metrics instead.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	sh perfbench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// The exit status is 0 when every output check passed and 1 otherwise;
// a usage error exits 2 without printing a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON document the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed   int64
	budget time.Duration
	traced bool
}

// outcome is what a workload hands back: counted operations, the
// failures among them with their reasons, and the metrics it measured.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the metrics an untraced run reports, on every
// workload. A pass is the workload's fixed input set: the request pool,
// or every section at each of the pass's seeds. An operation is one
// quote on the quote workload and one section call at one seed on the
// batch workloads.
var endToEnd = [][2]string{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"paper": func(c runConfig) (*outcome, error) { return runBatch(c, paperWorkload()) },
	"chaos": func(c runConfig) (*outcome, error) { return runBatch(c, chaosWorkload()) },
	"quote": runQuote,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper, chaos or quote")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measurement budget in seconds")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, budget: time.Duration(*seconds) * time.Second, traced: *traced == 1}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	want := perLayerNames()
	if !cfg.traced {
		out.set("rss_peak_mb", "MB", peakRSSMB())
		want = endToEnd
	}
	if len(out.metrics) != len(want) {
		fmt.Fprintf(os.Stderr, "perfbench: %s reported %d metrics, want %d\n", *name, len(out.metrics), len(want))
		os.Exit(1)
	}
	for _, nu := range want {
		m, ok := out.metrics[nu[0]]
		if !ok || m.Unit != nu[1] || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not report a finite %s in %s\n", *name, nu[0], nu[1])
			os.Exit(1)
		}
	}
	for i, f := range out.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more failed checks\n", len(out.failures)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", f)
	}
	res := result{
		Correct:   len(out.failures) == 0,
		Attempted: out.attempted,
		Failed:    len(out.failures),
		Metrics:   out.metrics,
	}
	printTable(os.Stdout, *name, cfg, res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, "|")
}

// printTable writes every metric by name and unit, one per line, ahead
// of the JSON line.
func printTable(w *os.File, name string, cfg runConfig, res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# perfbench %s seed=%d traced=%v gomaxprocs=%d: %d attempted, %d failed\n",
		name, cfg.seed, cfg.traced, runtime.GOMAXPROCS(0), res.Attempted, res.Failed)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-36s %16.6g %s\n", n, m.Value, m.Unit)
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
