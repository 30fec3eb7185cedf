// Resilcheck runs the resilience verification campaign: a fleet
// scenario is driven through hundreds of explicit and randomized
// fault schedules while five runtime invariant checkers — billing
// conservation, job liveness, checkpoint monotonicity, breaker
// legality, and replay determinism — audit every run. Any violating
// schedule is shrunk, ddmin-style, to a minimal reproducer printed as
// a copy-pasteable chaos.Schedule literal.
//
// The default invocation is the smoke campaign wired into `make
// check`: the full default grid (180 singles + 40 pairs) plus 30
// random schedules, replay on, expected to finish in seconds with
// zero violations. Exit status 1 means an invariant broke or a
// schedule errored.
//
// The campaign itself is fully deterministic per seed; wall-clock
// time appears on stderr only, never in the JSON report.
//
// Usage:
//
//	go run ./cmd/resilcheck
//	go run ./cmd/resilcheck -seed 7 -random 100 -out report.json
//	go run ./cmd/resilcheck -replay=false -v
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/invariant"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "scenario and grid seed")
		regions = flag.Int("regions", 2, "fleet size")
		random  = flag.Int("random", 30, "random schedules on top of the grid (negative: none)")
		replay  = flag.Bool("replay", true, "run every schedule twice and compare fingerprints")
		shrink  = flag.Int("shrink", 200, "oracle-eval budget per violating-schedule shrink")
		out     = flag.String("out", "", "write the JSON campaign report here (\"-\": stdout)")
		verbose = flag.Bool("v", false, "list every non-clean schedule on stderr")
	)
	flag.Parse()
	if *regions < 1 {
		usagef("-regions %d must be at least 1", *regions)
	}

	grid := invariant.DefaultGrid()
	grid.Seed = *seed
	opts := experiments.ResilienceOpts{
		Scenario:     invariant.Scenario{Seed: *seed, Regions: *regions},
		Grid:         grid,
		Random:       *random,
		Replay:       *replay,
		ShrinkBudget: *shrink,
	}

	start := time.Now()
	rep, err := experiments.ResilienceCampaign(opts)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	if *out != "" {
		j, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		j = append(j, '\n')
		if *out == "-" {
			os.Stdout.Write(j)
		} else if err := os.WriteFile(*out, j, 0o644); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Fprintf(os.Stderr, "resilcheck: %d schedules x %d checkers (replay=%v): %d clean, %d violating, %d errors in %.1fs\n",
		rep.Schedules, len(rep.Checkers), rep.Replay, rep.Clean, rep.Violating, rep.Errors,
		elapsed.Seconds())

	if rep.Violating > 0 || rep.Errors > 0 {
		for _, r := range rep.Results {
			if r.Err != "" {
				fmt.Fprintf(os.Stderr, "\nschedule %d errored: %s\n%s\n", r.Index, r.Err, r.Schedule)
				continue
			}
			fmt.Fprintf(os.Stderr, "\nschedule %d: %d violation(s)\n", r.Index, len(r.Violations))
			for _, v := range r.Violations {
				fmt.Fprintf(os.Stderr, "  %s\n", v)
			}
			if r.Shrunk != "" {
				fmt.Fprintf(os.Stderr, "minimal reproducer (%d fault(s), %d evals):\n%s\n",
					r.ShrunkFaults, r.ShrinkEvals, r.Shrunk)
			}
		}
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprintln(os.Stderr, "all invariants held on every schedule")
	}
}

// usagef reports a bad flag value and exits with status 2, the
// flag package's own status for usage errors.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "resilcheck: "+format+"\n", args...)
	os.Exit(2)
}
