package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"buckwild"
	"buckwild/internal/prng"
	"buckwild/internal/run"
	"buckwild/perfbench/stat"
)

// The serve-train workload: the `buckwild serve` daemon built from the
// tree, in its production wiring (health watchdog, NumHealth, series,
// flight recorder, per-epoch fsync'd checkpoints, hot promotion), under an
// open-loop /predict stream from this one process over at most nproc
// connections, while it trains. Reads sit beside writes: predictions
// share the CPUs with training rounds, checkpoint fsyncs and promotions.

const (
	serveN      = 512   // model dimension
	serveM      = 10000 // examples per training round's epoch
	serveEpochs = 8     // epochs per training round

	// fixedRate is the one fixed offered rate, well under what the
	// daemon sustains on a 2-CPU host. The fixed window takes fixedShare
	// of the run and is cut into sub-windows of partSize requests, the
	// fewest whose p99 has ten samples beyond it; the medians of the
	// sub-windows' p50 and p99 are reported, so one stall moves one
	// sub-window, not the figure.
	fixedRate  = 600.0
	fixedShare = 0.5
	partSize   = 1000
	minParts   = 4
	// latencyLimit is the p99 limit of the capacity search. It sits well
	// above the fixed-rate p99, so a single collector pause does not fail
	// a step, while a growing backlog still does.
	latencyLimit = 50 * time.Millisecond
	// The capacity search doubles the offered rate from searchBase
	// until a step misses the limit (or halves it until one meets it),
	// then bisects; a search that still meets the limit at searchTop
	// fails the run, since it would report the top of its range, not a
	// capacity.
	searchBase, searchTop, searchFloor = 800.0, 51200.0, 100.0
	// Each step lasts long enough that the daemon's alternation between
	// training epochs, dataset generation and checkpoints averages out.
	searchStep = 2 * time.Second
	// Six bisections resolve the capacity to 1/64 of its bracket (25
	// req/s at a 1,600-3,200 bracket), finer than its run-to-run spread,
	// so the figure does not sit on a coarse grid of rates.
	searchBisections = 6
	// scrapeEvery is the /metrics scrape cadence throughout the run.
	scrapeEvery = 500 * time.Millisecond

	singleTemplates, batchTemplates = 64, 8

	// setupRuns is how many times a run starts the daemon; setup_s takes
	// the median.
	setupRuns = 5
)

// daemon is one running `buckwild serve`.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	dir  string
	// out collects the daemon's standard output after the address line.
	mu   sync.Mutex
	out  bytes.Buffer
	done chan struct{}
}

// startDaemon starts the daemon with its state in dir and waits until
// /healthz answers 200, which it does once a first model is promoted.
func startDaemon(bin, dir string, seed uint64) (*daemon, error) {
	if err := os.MkdirAll(filepath.Join(dir, "bundles"), 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0",
		"-sig", "D8M8", "-n", strconv.Itoa(serveN), "-m", strconv.Itoa(serveM),
		"-epochs", strconv.Itoa(serveEpochs), "-threads", "1", "-seed", strconv.FormatUint(seed, 10),
		"-checkpoint-dir", filepath.Join(dir, "ckpt"), "-bundle-dir", filepath.Join(dir, "bundles"),
		"-log-level", "warn")
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	// The daemon dies with the benchmark even when the benchmark is
	// killed, so no run leaves it behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	d := &daemon{cmd: cmd, dir: dir, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stdout)
		first := true
		for sc.Scan() {
			line := sc.Text()
			if first {
				first = false
				if f := strings.Fields(line); len(f) >= 3 && f[0] == "serving" {
					addr <- strings.TrimPrefix(f[2], "http://")
				}
				close(addr)
				continue
			}
			d.mu.Lock()
			d.out.WriteString(line + "\n")
			d.mu.Unlock()
		}
		if first {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if !ok || a == "" {
			d.kill()
			return nil, fmt.Errorf("daemon printed no listen address (see %s)", logf.Name())
		}
		d.addr = a
	case <-time.After(30 * time.Second):
		d.kill()
		return nil, fmt.Errorf("daemon did not start within 30s")
	}
	for t0 := time.Now(); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get("http://" + d.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, fmt.Errorf("daemon never promoted a model within 60s")
		}
	}
}

// kill ends a daemon that failed to start, and waits for it once its
// output is drained.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
	d.cmd.Wait()
}

// stop sends SIGTERM and waits for the drain. It returns the daemon's
// standard output after the address line and its peak resident set.
func (d *daemon) stop() (string, float64, error) {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return "", 0, err
	}
	waited := make(chan error, 1)
	go func() {
		<-d.done
		waited <- d.cmd.Wait()
	}()
	var err error
	select {
	case err = <-waited:
	case <-time.After(30 * time.Second):
		d.cmd.Process.Kill()
		<-waited
		return "", 0, fmt.Errorf("daemon did not drain within 30s of SIGTERM")
	}
	d.mu.Lock()
	out := d.out.String()
	d.mu.Unlock()
	var rss float64
	if ru, ok := d.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rss = float64(ru.Maxrss) / 1024
	}
	if err != nil {
		return out, rss, fmt.Errorf("daemon exit after SIGTERM: %w", err)
	}
	return out, rss, nil
}

// scrape is one GET /metrics.
type scrape struct {
	at     time.Time
	dur    time.Duration
	bytes  int
	values map[string]float64
}

func scrapeMetrics(addr string) (scrape, error) {
	t := time.Now()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return scrape{}, err
	}
	s := scrape{at: time.Now(), dur: time.Since(t), bytes: len(b), values: make(map[string]float64)}
	for _, l := range strings.Split(string(b), "\n") {
		f := strings.Fields(l)
		if len(f) == 2 && !strings.HasPrefix(l, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				s.values[f[0]] = v
			}
		}
	}
	return s, nil
}

// scraper scrapes /metrics at a fixed cadence until stopped.
type scraper struct {
	mu      sync.Mutex
	scrapes []scrape
	errs    int
	stopc   chan struct{}
	wg      sync.WaitGroup
}

func startScraper(addr string, rec *recorder) *scraper {
	s := &scraper{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(scrapeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stopc:
				return
			case <-tick.C:
				id := rec.begin("scrape", "obs", 0, rec.op())
				sc, err := scrapeMetrics(addr)
				rec.end(id)
				s.mu.Lock()
				if err != nil {
					s.errs++
				} else {
					s.scrapes = append(s.scrapes, sc)
				}
				s.mu.Unlock()
			}
		}
	}()
	return s
}

func (s *scraper) stop() []scrape {
	close(s.stopc)
	s.wg.Wait()
	return s.scrapes
}

// window is one stretch of offered load and what the daemon did in it.
type window struct {
	samples       []sample
	before, after scrape
}

// offerWindow offers rate for dur, scraping /metrics just before and
// after so the daemon's training progress over the window is known.
func offerWindow(addr string, send sendFunc, rec *recorder, rate float64, dur time.Duration, conns int, tmplOf func(int) int) (window, error) {
	var w window
	var err error
	if w.before, err = scrapeMetrics(addr); err != nil {
		return w, err
	}
	w.samples = offer(send, rec, rate, int(rate*dur.Seconds()), conns, tmplOf)
	if w.after, err = scrapeMetrics(addr); err != nil {
		return w, err
	}
	return w, nil
}

// latenciesMS returns the samples' latencies from their due times, in ms.
func latenciesMS(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		out[i] = ss[i].latency().Seconds() * 1e3
	}
	return out
}

// p99 returns the 99th percentile of xs, or an error when fewer than
// ten samples lie beyond it.
func p99(xs []float64) (float64, error) {
	if stat.TailPercentile(len(xs)) < 0.99 {
		return 0, fmt.Errorf("%d samples are too few for a p99 with ten beyond it", len(xs))
	}
	return stat.Quantile(xs, 0.99), nil
}

// epochRate is the daemon's training epochs per second over a window:
// the least-squares slope of its completed-epoch gauge against time over
// the window's scrapes. Fitting every scrape rather than differencing two
// keeps the one-epoch granularity of the gauge from showing in the
// figure.
func epochRate(w window, cadence []scrape) float64 {
	pts := []scrape{w.before}
	for _, s := range cadence {
		if s.at.After(w.before.at) && s.at.Before(w.after.at) {
			pts = append(pts, s)
		}
	}
	pts = append(pts, w.after)
	var st, se, stt, ste float64
	for _, p := range pts {
		t := p.at.Sub(w.before.at).Seconds()
		ep := p.values["buckwild_epochs_completed"]
		st, se, stt, ste = st+t, se+ep, stt+t*t, ste+t*ep
	}
	n := float64(len(pts))
	return (n*ste - st*se) / (n*stt - st*st)
}

// searchCapacity finds the highest offered rate whose p99 stays under
// latencyLimit with the generator keeping to its schedule, and returns it
// with every request it sent. A step that falls behind shows as a growing
// tail: every request is timed from when it was due, so a backlog lifts
// the p99 of the step.
func searchCapacity(send sendFunc, conns int, tmplOf func(int) int) (float64, []sample, error) {
	var all []sample
	meets := func(rate float64) (bool, error) {
		// A step at a low rate lasts longer, so its p99 still has ten
		// samples beyond it.
		ss := offer(send, nil, rate, max(int(rate*searchStep.Seconds()), partSize), conns, tmplOf)
		all = append(all, ss...)
		ok := true
		for i := range ss {
			if ss[i].err != nil || ss[i].status != http.StatusOK {
				ok = false
			}
		}
		p, err := p99(latenciesMS(ss))
		if err != nil {
			return false, err
		}
		late := make([]float64, len(ss))
		for i := range ss {
			late[i] = ss[i].late().Seconds() * 1e3
		}
		lim := latencyLimit.Seconds() * 1e3
		lateP99 := stat.Quantile(late, 0.99)
		pass := ok && p <= lim && lateP99 <= lim
		fmt.Fprintf(os.Stderr, "perfbench: capacity step %8.0f/s: p99 %7.2f ms, generator late p99 %6.2f ms, meets limit %v\n", rate, p, lateP99, pass)
		time.Sleep(200 * time.Millisecond) // let the daemon's queue settle between steps
		return pass, nil
	}
	// Bracket the capacity: double from searchBase while steps meet the
	// limit, or halve while they miss it, until one rate meets it (lo)
	// and another misses it (hi).
	lo, hi := 0.0, 0.0
	for r := searchBase; lo == 0 || hi == 0; {
		if r > searchTop {
			return 0, all, fmt.Errorf("capacity search met the limit at its top rate %.0f/s: it measured its own range, not the daemon", searchTop)
		}
		if r < searchFloor {
			return 0, all, fmt.Errorf("capacity search missed the limit even at %.0f/s", 2*r)
		}
		ok, err := meets(r)
		if err != nil {
			return 0, all, err
		}
		switch {
		case ok:
			lo = r
			r *= 2
		default:
			hi = r
			r /= 2
		}
	}
	for i := 0; i < searchBisections; i++ {
		mid := (lo + hi) / 2
		ok, err := meets(mid)
		if err != nil {
			return 0, all, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, all, nil
}

func serveTrain(e *env) (*outcome, error) {
	o := &outcome{}
	if e.buckwild == "" {
		return nil, errors.New("serve-train needs -buckwild, the built daemon")
	}
	conns := min(runtime.NumCPU(), 2)
	g := prng.NewXorshift64(e.seed | 1)
	tmpls := predictTemplates(singleTemplates, batchTemplates, serveN, func() float32 { return prng.Float32(g)*2 - 1 })
	tmplOf := mixTemplate(singleTemplates, batchTemplates)

	// Set-up, setupRuns times: start the daemon and wait for its first
	// promotion. The last daemon serves the run.
	base, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)
	pre := time.Since(processStart).Seconds()
	var setups []float64
	var d *daemon
	for i := 0; i < setupRuns; i++ {
		id := e.rec.begin("daemon-start", "serve", 0, e.rec.op())
		t := time.Now()
		if d, err = startDaemon(e.buckwild, filepath.Join(base, fmt.Sprint("daemon-", i)), e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		e.rec.end(id)
		if i < setupRuns-1 {
			if _, _, err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	setup := setupTime(pre, setups)
	running := true
	defer func() {
		if running {
			d.kill()
		}
	}()

	url := "http://" + d.addr + "/predict"
	send := httpSender(url, conns, tmpls)
	sc := startScraper(d.addr, e.rec)
	scraping := true
	defer func() {
		if scraping {
			sc.stop()
		}
	}()
	var all []sample

	// Warm-up, then the fixed-rate window(s).
	warm := offer(send, nil, fixedRate, int(fixedRate), conns, tmplOf)
	all = append(all, warm...)
	fixedDur := time.Duration(max(fixedShare*e.seconds, minParts*partSize/fixedRate) * float64(time.Second))
	untraced, err := offerWindow(d.addr, send, nil, fixedRate, fixedDur, conns, tmplOf)
	if err != nil {
		return nil, err
	}
	all = append(all, untraced.samples...)
	var traced window
	if e.trace {
		traced, err = offerWindow(d.addr, send, e.rec, fixedRate, fixedDur, conns, tmplOf)
		if err != nil {
			return nil, err
		}
		all = append(all, traced.samples...)
	}
	var capacity float64
	if !e.trace {
		var ss []sample
		capacity, ss, err = searchCapacity(send, conns, tmplOf)
		all = append(all, ss...)
		if err != nil {
			return nil, err
		}
	}
	scrapes := sc.stop()
	scraping = false
	if sc.errs > 0 {
		o.check(fmt.Errorf("%d of %d /metrics scrapes failed", sc.errs, sc.errs+len(scrapes)))
	}

	// The final burst: sequential requests whose answers are checked
	// against the newest checkpoints, then SIGTERM.
	burst := offer(send, nil, 200, 40, 1, func(k int) int { return k % singleTemplates })
	all = append(all, burst...)
	out, rss, stopErr := d.stop()
	running = false
	o.check(stopErr)
	o.check(checkDrain(out))

	// Correctness over every request of the run.
	// A 429 is the daemon's admission control turning a request away, as
	// it should when its queue is full; it is counted apart, not as a
	// failure, so the failed share cannot move with the host's load.
	var ok200, rejected uint64
	tags := make([][]uint64, conns)
	for i := range all {
		s := &all[i]
		o.attempted++
		if s.err == nil && s.status == http.StatusTooManyRequests {
			rejected++
			continue
		}
		if s.err != nil || s.status != http.StatusOK {
			o.failed++
			o.check(fmt.Errorf("request %d: status %d, error %v", i, s.status, s.err))
			continue
		}
		ok200++
		tags[s.conn] = append(tags[s.conn], s.promo)
	}
	fmt.Printf("serve-train: %d requests, %d answered 200, %d turned away with 429\n", len(all), ok200, rejected)
	for c, t := range tags {
		o.check(checkMonotone(c, t))
	}
	if served, ok := servedCount(out); ok {
		o.check(checkServed(ok200, served))
	} else {
		o.check(fmt.Errorf("daemon printed no served count on exit: %q", out))
	}
	ckpts, err := readCheckpoints(filepath.Join(d.dir, "ckpt"))
	if err != nil {
		return nil, err
	}
	o.check(checkServedPredictions(all, tmpls, ckpts))

	parts := splitByDue(untraced.samples, len(untraced.samples)/partSize)
	var p50s, p99s []float64
	for _, p := range parts {
		l := latenciesMS(p)
		p50s = append(p50s, stat.Median(l))
		q, err := p99(l)
		if err != nil {
			return nil, err
		}
		p99s = append(p99s, q)
	}
	p99 := median(p99s)
	fmt.Printf("serve-train: p50 %.3f ms, p99 %.3f ms, medians of %d sub-windows of %d requests at %.0f/s\n",
		median(p50s), p99, len(parts), len(parts[0]), fixedRate)
	if !e.trace {
		epochs := epochRate(untraced, scrapes)
		if !(epochs > 0) {
			return nil, fmt.Errorf("the daemon completed no training epoch in the fixed-rate window (slope %g/s)", epochs)
		}
		o.set("setup_s", setup, "s")
		o.set("peak_rss_mb", rss, "MB")
		o.set("work_s", 1/epochs, "s")
		o.set("latency_ms", median(p50s), "ms")
		o.set("throughput_per_s", capacity, "1/s")
		o.set("serve_train_gnps", epochs*serveM*serveN/1e9, "GNPS")
		return o, nil
	}

	// Layer figures: the p99 of the untraced window, which is not gated
	// (its run-to-run spread on a shared 2-CPU host exceeds the largest
	// bound a metric may have; see README), the live daemon's exposition,
	// then the layer probe, which times the serving and checkpoint layers
	// in process after the daemon is gone.
	o.set("serve.p99_ms", p99, "ms")
	var scrapeMS, scrapeBytes []float64
	for _, s := range scrapes {
		scrapeMS = append(scrapeMS, s.dur.Seconds()*1e3)
		scrapeBytes = append(scrapeBytes, float64(s.bytes))
	}
	o.set("obs.metrics_scrape_ms", median(scrapeMS), "ms")
	o.set("obs.metrics_bytes", median(scrapeBytes), "B")
	o.set("serve.promotions", traced.after.values["buckwild_serve_promotions_total"]-traced.before.values["buckwild_serve_promotions_total"], "count")
	late := make([]float64, len(traced.samples))
	for i := range traced.samples {
		late[i] = traced.samples[i].late().Seconds() * 1e3
	}
	o.set("loadgen.late_ms", stat.Quantile(late, stat.TailPercentile(len(late))), "ms")
	o.set("trace.overhead_share", stat.Median(latenciesMS(traced.samples))/stat.Median(latenciesMS(untraced.samples))-1, "1")
	if _, err := layerProbe(e, o, nil); err != nil {
		return nil, err
	}
	setSelfTimes(o, e.rec, "request", "scrape")
	return o, nil
}

// splitByDue splits samples (in due order) into n equal parts.
func splitByDue(ss []sample, n int) [][]sample {
	out := make([][]sample, n)
	for i := range out {
		out[i] = ss[i*len(ss)/n : (i+1)*len(ss)/n]
	}
	return out
}

// checkDrain checks the daemon's exit report after SIGTERM.
func checkDrain(out string) error {
	if !strings.Contains(out, "served ") {
		return fmt.Errorf("daemon did not report a clean drain: %q", out)
	}
	return nil
}

// servedCount parses "served N requests" from the daemon's exit report.
func servedCount(out string) (uint64, bool) {
	for _, l := range strings.Split(out, "\n") {
		f := strings.Fields(l)
		if len(f) >= 3 && f[0] == "served" && f[2] == "requests" {
			n, err := strconv.ParseUint(f[1], 10, 64)
			return n, err == nil
		}
	}
	return 0, false
}

// checkpoint is one checkpoint file and its dequantized weights.
type checkpoint struct {
	*run.Checkpoint
	w []float32
}

// readCheckpoints reads every checkpoint the daemon left, oldest first.
func readCheckpoints(dir string) ([]checkpoint, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.bkcp"))
	if err != nil {
		return nil, err
	}
	var out []checkpoint
	for _, n := range names {
		ck, err := run.ReadCheckpoint(n)
		if err != nil {
			return nil, err
		}
		w, err := ck.Weights()
		if err != nil {
			return nil, err
		}
		out = append(out, checkpoint{Checkpoint: ck, w: w})
	}
	return out, nil
}

// checkServedPredictions checks every answer tagged with the epoch of a
// checkpoint still on disk — the newest ones, which the daemon keeps —
// against the benchmark's own float64 sigmoid(w·x) over its weights. The
// final burst right before SIGTERM makes sure such answers exist.
func checkServedPredictions(all []sample, tmpls []template, ckpts []checkpoint) error {
	byEpoch := make(map[int][]float32)
	for _, c := range ckpts {
		byEpoch[c.Epoch] = c.w
	}
	checked := 0
	for i := range all {
		s := &all[i]
		w, ok := byEpoch[s.epoch]
		if !ok || s.status != http.StatusOK {
			continue
		}
		xs := tmpls[s.tmpl].xs
		if len(s.margins) != len(xs) {
			return fmt.Errorf("answer with %d predictions for %d examples", len(s.margins), len(xs))
		}
		for k, x := range xs {
			if err := checkPrediction(s.margins[k], w, x); err != nil {
				return fmt.Errorf("epoch %d: %w", s.epoch, err)
			}
			checked++
		}
	}
	if checked == 0 {
		return errors.New("no answer was tagged with the epoch of a checkpoint on disk")
	}
	fmt.Printf("serve-train: %d predictions checked against the %d checkpoints left on disk\n", checked, len(ckpts))
	return nil
}

// serveLayers times the serving and checkpoint layers in process at the
// daemon's model size, with ck's weights.
func serveLayers(e *env, o *outcome, ck checkpoint, tmpls []template) error {
	op := e.rec.op()
	m, err := buckwild.NewModel("D8M8", ck.w)
	if err != nil {
		return err
	}
	batch := tmpls[singleTemplates].xs
	out := make([]float32, len(batch))
	id := e.rec.begin("predict-batch", "serve", 0, op)
	calls, el := loop(250*time.Millisecond, 1, func(int) {
		if _, err = m.PredictBatch(batch, out); err != nil {
			panic(err)
		}
	})
	e.rec.end(id)
	o.set("serve.predict_batch_ns_per_example", el/float64(calls*len(batch)), "ns")

	srv, err := buckwild.NewModelServer(buckwild.ServeConfig{})
	if err != nil {
		return err
	}
	defer srv.Drain(context.Background())
	if _, err := srv.Promote(m, ck.Epoch, 0); err != nil {
		return err
	}
	h := srv.Handler()
	var handler []float64
	id = e.rec.begin("handler", "serve", 0, op)
	for i := 0; i < 2000; i++ {
		req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(tmpls[i%singleTemplates].body))
		rr := httptest.NewRecorder()
		t := time.Now()
		h.ServeHTTP(rr, req)
		handler = append(handler, time.Since(t).Seconds()*1e6)
		if rr.Code != http.StatusOK {
			return fmt.Errorf("in-process handler answered %d", rr.Code)
		}
	}
	e.rec.end(id)
	o.set("serve.handler_us", median(handler), "us")

	sp := buckwild.SnapshotPromoter(srv)
	var promote []float64
	id = e.rec.begin("promote", "serve", 0, op)
	for i := 0; i < 500; i++ {
		t := time.Now()
		sp.OnSnapshot(buckwild.ModelSnapshot{Epoch: ck.Epoch + 1 + i, Loss: 0.5, Model: m})
		promote = append(promote, time.Since(t).Seconds()*1e6)
	}
	e.rec.end(id)
	o.set("serve.promote_us", median(promote), "us")

	dir, err := os.MkdirTemp(e.work, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var write, load []float64
	for i := 0; i < 30; i++ {
		c := *ck.Checkpoint
		c.Epoch = i + 1
		id = e.rec.begin("checkpoint-write", "run", 0, op)
		t := time.Now()
		if _, _, err := run.WriteCheckpoint(dir, &c); err != nil {
			return err
		}
		write = append(write, time.Since(t).Seconds()*1e3)
		e.rec.end(id)
		id = e.rec.begin("load-latest", "run", 0, op)
		t = time.Now()
		got, _, _, err := run.LoadLatest(dir)
		load = append(load, time.Since(t).Seconds()*1e3)
		e.rec.end(id)
		if err != nil || got == nil || got.Epoch != i+1 {
			return fmt.Errorf("load latest checkpoint: got %v, %v", got, err)
		}
	}
	o.set("run.checkpoint_write_ms", median(write), "ms")
	o.set("run.load_latest_ms", median(load), "ms")
	return nil
}
