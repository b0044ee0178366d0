// Command steady runs one benchmark workload N times with different
// seeds, each run as long as run_seconds in BENCHMARK.json, and prints, for each end-to-end metric, its median, quartiles and
// spread (interquartile distance over median) against the metric's bound
// from BENCHMARK.json. A metric whose spread exceeds its bound is labelled
// unresolved: a change smaller than its noise cannot be told from it.
//
// Given a second checkout with -b, it interleaves the two builds (A B,
// then B A, alternating) on the same seeds and also prints each metric's
// median ratio B/A and whether B is worse than A by more than the bound.
//
//	cd perfbench && go run ./cmd/steady -workload train-host -n 10
//	cd perfbench && go run ./cmd/steady -workload sim-sweep -n 10 -b /path/to/other/checkout
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"buckwild/perfbench/runbench"
	"buckwild/perfbench/stat"
)

type spec struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run")
		n        = flag.Int("n", 10, "runs per build")
		seed0    = flag.Uint64("seed", 1, "first seed; run i uses seed+i")
		a        = flag.String("a", "..", "checkout of build A (holds BENCHMARK.json)")
		b        = flag.String("b", "", "checkout of build B, interleaved with A when given")
	)
	flag.Parse()
	raw, err := os.ReadFile(filepath.Join(*a, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fatal(fmt.Errorf("BENCHMARK.json: %w", err))
	}
	if *workload == "" || *n < 1 {
		fatal(fmt.Errorf("need -workload and -n >= 1"))
	}
	builds := []string{*a}
	if *b != "" {
		builds = append(builds, *b)
	}
	runs := make([][]runbench.Result, len(builds))
	for i := 0; i < *n; i++ {
		seed := *seed0 + uint64(i)
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			if k >= len(builds) {
				continue
			}
			r, err := runbench.Run(builds[k], *workload, seed, sp.RunSeconds, 0)
			if err != nil {
				fatal(fmt.Errorf("build %c seed %d: %w", 'A'+k, seed, err))
			}
			fmt.Fprintf(os.Stderr, "steady: build %c seed %d done (correct %v, %d/%d failed):", 'A'+k, seed, r.Correct, r.Failed, r.Attempted)
			for _, m := range sp.EndToEnd {
				fmt.Fprintf(os.Stderr, " %s=%.4g", m.Name, r.Metrics[m.Name].Value)
			}
			fmt.Fprintln(os.Stderr)
			runs[k] = append(runs[k], r)
		}
	}

	fmt.Printf("%-22s %-5s %5s %12s %12s %12s %7s %6s  %s\n", "metric", "unit", "build", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, m := range sp.EndToEnd {
		meds := make([]float64, len(builds))
		spreads := make([]float64, len(builds))
		for k := range builds {
			var vals []float64
			for _, r := range runs[k] {
				vals = append(vals, r.Metrics[m.Name].Value)
			}
			q1, q3, _ := stat.Quartiles(vals)
			meds[k], spreads[k] = stat.Median(vals), stat.Spread(vals)
			verdict := "ok"
			if !(spreads[k] <= m.Bound) {
				verdict = "unresolved"
			}
			fmt.Printf("%-22s %-5s %5c %12.6g %12.6g %12.6g %7.3f %6.3f  %s\n", m.Name, m.Unit, 'A'+k, meds[k], q1, q3, spreads[k], m.Bound, verdict)
		}
		if len(builds) == 2 && meds[0] != 0 {
			ratio := meds[1] / meds[0]
			worse := ratio - 1
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within bound"
			switch {
			case math.Max(spreads[0], spreads[1]) > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse by more than the bound"
			}
			fmt.Printf("%-22s %-5s   B/A %12.4f %38s  %s\n", m.Name, "", ratio, "", verdict)
		}
	}
	for k := range builds {
		att, fail := 0, 0
		for _, r := range runs[k] {
			att, fail = att+r.Attempted, fail+r.Failed
		}
		fmt.Printf("build %c: %d runs, %d of %d operations failed\n", 'A'+k, len(runs[k]), fail, att)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "steady:", err)
	os.Exit(1)
}
