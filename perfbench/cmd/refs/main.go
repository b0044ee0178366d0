// Command refs regenerates the reference figures in perfbench/README.md:
// it runs every workload once untraced and once traced on this host, and
// rewrites the block between the README's refs markers with the figures,
// the host's fingerprint, the kernel-to-engine reconciliation and the
// DMGC model's prediction beside the measured D8M8 throughput, so the
// README's numbers are never copied by hand.
//
//	cd perfbench && go run ./cmd/refs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"

	"buckwild"
	"buckwild/perfbench/runbench"
)

const (
	beginMark = "<!-- refs:begin (generated by go run ./cmd/refs; do not edit) -->"
	endMark   = "<!-- refs:end -->"
	// denseN is train-host's dense model size, the DMGC prediction's n.
	denseN = 256
)

func main() {
	root := flag.String("root", "..", "checkout root")
	seed := flag.Uint64("seed", 1, "seed of the reference runs")
	flag.Parse()
	var spec struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fatal(err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		fatal(err)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\nHost: %s. Seed %d, %d s runs.\n", beginMark, fingerprint(), *seed, spec.RunSeconds)
	// train holds train-host's figures, which the reconciliation and the
	// DMGC comparison below read; the other workloads measure the kernels
	// too, in their own runs.
	train := make(map[string]runbench.Metric)
	for _, w := range spec.Workloads {
		for _, trace := range []int{0, 1} {
			r, err := runbench.Run(*root, w.Name, *seed, spec.RunSeconds, trace)
			if err != nil {
				fatal(fmt.Errorf("%s trace %d: %w", w.Name, trace, err))
			}
			// The run's metrics file holds every figure it measured; the
			// result line carries the manifest's, marked here in bold.
			ms, err := readMetrics(filepath.Join(*root, ".bench_build", fmt.Sprintf("metrics-%s-%d-trace%d.json", w.Name, *seed, trace)))
			if err != nil {
				fatal(err)
			}
			kind := "untraced run"
			if trace == 1 {
				kind = "traced run"
			}
			fmt.Fprintf(&b, "\n**%s, %s** — correct %v, %d of %d operations failed\n\n| metric | value | unit |\n|---|---:|---|\n",
				w.Name, kind, r.Correct, r.Failed, r.Attempted)
			names := make([]string, 0, len(ms))
			for n := range ms {
				names = append(names, n)
			}
			sort.Strings(names)
			for _, n := range names {
				m, label := ms[n], "`"+n+"`"
				if _, ok := r.Metrics[n]; ok {
					label = "**" + label + "**"
				}
				fmt.Fprintf(&b, "| %s | %.4g | %s |\n", label, m.Value, m.Unit)
				if w.Name == "train-host" {
					train[n] = m
				}
			}
		}
	}

	v := func(n string) float64 { return train[n].Value }
	fmt.Fprintf(&b, "\n**Kernel ↔ engine reconciliation** (train-host, n = %d). ", denseN)
	for _, p := range []string{"d8", "f32"} {
		dot, axpy, core := v("kernels.dot_ns_per_elem."+p), v("kernels.axpy_ns_per_elem."+p), v("core.ns_per_elem."+p)
		fmt.Fprintf(&b, "%s: engine %.2f ns/elem; Dot %.2f + Axpy %.2f = %.2f ns/elem, %.0f%% of it. ",
			strings.ToUpper(p), core, dot, axpy, dot+axpy, 100*(dot+axpy)/core)
	}
	fmt.Fprintf(&b, "\n\n**F32 Dot path.** F32 Dot costs %.2f ns/elem against F32 Axpy %.2f ns/elem and D8 Dot %.2f ns/elem.\n",
		v("kernels.dot_ns_per_elem.f32"), v("kernels.axpy_ns_per_elem.f32"), v("kernels.dot_ns_per_elem.d8"))
	pred, err := buckwild.PredictThroughput(mustSig("D8M8"), denseN, 1)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(&b, "\n**DMGC model vs this host.** The model predicts %.2f GNPS for single-thread D8M8 at n = %d on its simulated Xeon; this host measures %.3f GNPS through Train (%.0f× below).\n\n%s",
		pred, denseN, v("train_d8_gnps"), pred/v("train_d8_gnps"), endMark)

	readme := filepath.Join(*root, "perfbench", "README.md")
	text, err := os.ReadFile(readme)
	if err != nil {
		fatal(err)
	}
	s := string(text)
	i, j := strings.Index(s, beginMark), strings.Index(s, endMark)
	if i < 0 || j < i {
		fatal(fmt.Errorf("%s has no refs markers", readme))
	}
	s = s[:i] + b.String() + s[j+len(endMark):]
	if err := os.WriteFile(readme, []byte(s), 0o644); err != nil {
		fatal(err)
	}
	fmt.Println("refs: rewrote the reference figures in", readme)
}

func readMetrics(path string) (map[string]runbench.Metric, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var ms map[string]runbench.Metric
	if err := json.Unmarshal(raw, &ms); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ms, nil
}

func mustSig(s string) buckwild.Signature {
	sig, err := buckwild.ParseSignature(s)
	if err != nil {
		fatal(err)
	}
	return sig
}

// fingerprint names the host: CPU model, nproc, Go version.
func fingerprint() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					cpu = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	return fmt.Sprintf("%s, nproc %d, %s %s/%s", cpu, runtime.NumCPU(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "refs:", err)
	os.Exit(1)
}
