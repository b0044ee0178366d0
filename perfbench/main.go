// Command perfbench is buckwild's benchmark. It runs one named workload
// against the program built from this checkout, checks the program's
// outputs against computations made apart from it, and prints every
// metric it measured by name and unit, one a line, then the metrics that
// BENCHMARK.json names as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every workload carries the same metrics on that line, each measured on
// the workload's own job.
//
// It drives the program only through public functions — the buckwild
// facade, the exported API of internal/* and the built `buckwild serve`
// binary — and times each layer from outside, around the calls into it.
// With -trace 1 it runs the workload once more with spans recorded by
// its own code and prints the per-layer metrics instead of the
// end-to-end ones. Run it through run.sh, which builds both binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"buckwild/perfbench/runbench"
	"buckwild/perfbench/stat"
)

// processStart is taken before main runs, so set-up time counts the
// benchmark's own start-up as well as its set-up work.
var processStart = time.Now()

// env is what a workload receives: its inputs' seed, its measuring time,
// whether this is the traced run, and where to find and put things.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	// buckwild is the path of the built `buckwild` binary; work is the
	// run's working directory inside the checkout.
	buckwild string
	work     string
	// rec records spans; nil in the untraced run.
	rec *recorder
}

// outcome is what a workload hands back.
type outcome struct {
	attempted, failed int
	metrics           map[string]runbench.Metric
	// errs lists every failed correctness check.
	errs []string
}

func (o *outcome) set(name string, v float64, unit string) {
	if o.metrics == nil {
		o.metrics = make(map[string]runbench.Metric)
	}
	o.metrics[name] = runbench.Metric{Value: v, Unit: unit}
}

// check records a failed correctness check; a nil error passes.
func (o *outcome) check(err error) {
	if err != nil {
		o.errs = append(o.errs, err.Error())
	}
}

var workloads = map[string]func(*env) (*outcome, error){
	"sim-sweep":   simSweep,
	"train-host":  trainHost,
	"serve-train": serveTrain,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sim-sweep, train-host or serve-train")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are made from")
		seconds  = flag.Float64("seconds", 20, "how long the run measures")
		trace    = flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		bin      = flag.String("buckwild", "", "path of the built buckwild binary (serve-train)")
		work     = flag.String("work", "", "working directory for the run's files")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fail("unknown workload %q (want sim-sweep, train-host or serve-train)", *workload)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *work == "" {
		fail("need -seconds > 0, -trace 0 or 1, and -work")
	}
	e := &env{seed: *seed, seconds: *seconds, trace: *trace == 1, buckwild: *bin, work: *work}
	names, err := manifestNames(manifestFile, e.trace)
	if err != nil {
		fail("%v", err)
	}
	if e.trace {
		e.rec = newRecorder()
	}
	out, err := run(e)
	if err != nil {
		fail("%s: %v", *workload, err)
	}
	if e.rec != nil {
		path := filepath.Join(*work, fmt.Sprintf("spans-%s-%d.json", *workload, *seed))
		if err := e.rec.write(path); err != nil {
			fail("write spans: %v", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(e.rec.spans), path)
		printSelfTimes(os.Stderr, e.rec)
	}
	for _, msg := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", msg)
	}
	printTable(os.Stdout, out)
	path := filepath.Join(*work, fmt.Sprintf("metrics-%s-%d-trace%d.json", *workload, *seed, *trace))
	if err := writeMetrics(path, out.metrics); err != nil {
		fail("write metrics: %v", err)
	}
	line, err := encodeResult(out, names)
	if err != nil {
		fail("%s: %v", *workload, err)
	}
	fmt.Println(string(line))
	if len(out.errs) > 0 {
		os.Exit(1)
	}
}

// manifestFile is BENCHMARK.json at the checkout root, where run.sh runs
// the benchmark from. It names the metrics the result line carries.
const manifestFile = "BENCHMARK.json"

// manifestNames returns the end-to-end metrics of the manifest at path,
// or its per-layer metrics for the traced run, with their units.
func manifestNames(path string, traced bool) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	type metric struct{ Name, Unit string }
	var m struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := m.EndToEnd
	if traced {
		list = m.PerLayer
	}
	out := make(map[string]string, len(list))
	for _, x := range list {
		out[x.Name] = x.Unit
	}
	return out, nil
}

// encodeResult renders the last output line with the metrics named in
// want (name to unit); a workload must have measured every one of them,
// in that unit. The others it measured are printed in the table above
// the line and written to the run's metrics file. correct speaks of the
// operations that did not fail: it is false when any check failed.
func encodeResult(out *outcome, want map[string]string) ([]byte, error) {
	sel := make(map[string]runbench.Metric, len(want))
	for name, unit := range want {
		m, ok := out.metrics[name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s was not measured", name)
		case m.Unit != unit:
			return nil, fmt.Errorf("metric %s measured in %s, the manifest says %s", name, m.Unit, unit)
		}
		sel[name] = m
	}
	return json.Marshal(runbench.Result{
		Correct: len(out.errs) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: sel,
	})
}

// writeMetrics stores every metric a run measured, the ones the result
// line leaves out too, for the reference command.
func writeMetrics(path string, ms map[string]runbench.Metric) error {
	b, err := json.MarshalIndent(ms, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printTable prints the metrics one per line ahead of the JSON line.
func printTable(f *os.File, out *outcome) {
	names := make([]string, 0, len(out.metrics))
	for n := range out.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out.metrics[n]
		fmt.Fprintf(f, "%-38s %14.6g %s\n", n, m.Value, m.Unit)
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

// peakRSSMB is this process's peak resident set in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler samples this process's resident set every few milliseconds,
// so a run can take the peak of each of its repetitions and report their
// median: the lifetime peak of a garbage-collected process depends on
// where the collector happened to run, and so varies from run to run.
type rssSampler struct {
	mu    sync.Mutex
	peak  float64
	stopc chan struct{}
	wg    sync.WaitGroup
}

func startRSS() *rssSampler {
	s := &rssSampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

// sample reads the resident set from /proc/self/statm; where that file
// does not exist it falls back to the lifetime peak.
func (s *rssSampler) sample() {
	mb := peakRSSMB()
	if b, err := os.ReadFile("/proc/self/statm"); err == nil {
		var size, resident int64
		if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
			mb = float64(resident*int64(os.Getpagesize())) / (1 << 20)
		}
	}
	s.mu.Lock()
	s.peak = max(s.peak, mb)
	s.mu.Unlock()
}

// take returns the peak since the last take and starts a new one.
func (s *rssSampler) take() float64 {
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.peak
	s.peak = 0
	return p
}

func (s *rssSampler) stop() {
	close(s.stopc)
	s.wg.Wait()
}

// freeHeap collects the garbage of a previous set-up, so a repeated
// set-up starts from the same heap and reuses its memory rather than
// raising the peak resident set.
func freeHeap() {
	runtime.GC()
}

// deadline reports whether a loop that began at start and has run done
// rounds should stop: once it has run at least minRounds and one more
// round, as long as the mean so far, would end after seconds. A run
// whose rounds last several seconds then measures about seconds, not up
// to a round more.
func deadline(start time.Time, seconds float64, done, minRounds int) bool {
	if done < minRounds {
		return false
	}
	el := time.Since(start).Seconds()
	return el+el/float64(done) > seconds
}

// setupTime is the set-up time a workload reports: the time from process
// start to its first set-up (pre) plus the median of its repeated
// set-ups. It prints the two parts on standard error.
func setupTime(pre float64, setups []float64) float64 {
	m := median(setups)
	fmt.Fprintf(os.Stderr, "perfbench: set-up %.4f s = process start %.4f s + median of %d set-ups %.4f s (range %.4f-%.4f s)\n",
		pre+m, pre, len(setups), m, slices.Min(setups), slices.Max(setups))
	return pre + m
}

var median = stat.Median
