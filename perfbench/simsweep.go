package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"buckwild/internal/cache"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
	"buckwild/internal/prng"
	"buckwild/internal/sweep"
	"buckwild/internal/trace"
)

// The sim-sweep workload: a fixed grid of simulated-Xeon points through
// the sweep pool with nproc workers. It exercises cache, trace, machine
// and sweep; the host kernels, engine and daemon do nothing here.

// simTask is one unit of pool work: a point, or a hand-optimized/generic
// pair run back to back so the generic point replays the pair's memoized
// memory simulation, as the pairs of cmd/experiments do.
type simTask struct {
	name   string
	points []machine.Workload
}

// simGrid builds the grid for one repetition. The seed is part of the
// timing model's memo key, so a repetition with a fresh seed simulates
// every point anew instead of looking it up.
func simGrid(seed uint64) []simTask {
	precs := []kernels.Prec{kernels.I8, kernels.I16, kernels.F32}
	dense := func(p kernels.Prec, threads, n int) machine.Workload {
		return machine.Workload{D: p, M: p, Variant: kernels.HandOpt, Quant: kernels.QShared, QuantPeriod: 8,
			ModelSize: n, Threads: threads, Prefetch: true, Seed: seed}
	}
	sparse := func(p kernels.Prec, threads, n int) machine.Workload {
		w := dense(p, threads, n)
		w.Sparse, w.IdxBits, w.Density = true, 8, 0.03
		return w
	}
	pair := func(w machine.Workload) []machine.Workload {
		g := w
		g.Variant = kernels.Generic
		return []machine.Workload{w, g}
	}
	var tasks []simTask
	add := func(name string, ws ...machine.Workload) {
		tasks = append(tasks, simTask{name: name, points: ws})
	}
	for _, p := range precs {
		add(fmt.Sprintf("dense-D%v-t18-2^20-pair", p), pair(dense(p, 18, 1<<20))...) // DRAM-bandwidth-bound
		add(fmt.Sprintf("dense-D%v-t1-2^14-pair", p), pair(dense(p, 1, 1<<14))...)   // L2-resident
		add(fmt.Sprintf("dense-D%v-t1-2^20", p), dense(p, 1, 1<<20))                 // single-core DRAM stream
		add(fmt.Sprintf("dense-D%v-t18-2^16", p), dense(p, 18, 1<<16))               // L3-resident, shared
		add(fmt.Sprintf("sparse-D%v-t1-2^16", p), sparse(p, 1, 1<<16))
		add(fmt.Sprintf("sparse-D%v-t18-2^16-pair", p), pair(sparse(p, 18, 1<<16))...)
	}
	noPf := func(w machine.Workload) machine.Workload { w.Prefetch = false; return w }
	obst := func(w machine.Workload) machine.Workload { w.Obstinacy = 0.5; return w }
	batch := func(w machine.Workload) machine.Workload { w.MiniBatch = 4; return w }
	sockets := func(w machine.Workload) machine.Workload { w.Sockets = 2; return w }
	add("dense-D8-t1-2^16-noprefetch", noPf(dense(kernels.I8, 1, 1<<16)))
	add("dense-D8-t18-2^16-noprefetch", noPf(dense(kernels.I8, 18, 1<<16)))
	add("dense-D8-t18-2^14-obstinate", obst(dense(kernels.I8, 18, 1<<14)))
	add("dense-D8-t18-2^16-obstinate", obst(dense(kernels.I8, 18, 1<<16)))
	add("dense-D8-t18-2^16-batch4", batch(dense(kernels.I8, 18, 1<<16)))
	add("dense-D16-t1-2^16-batch4", batch(dense(kernels.I16, 1, 1<<16)))
	add("dense-D8-t18-2^16-2socket", sockets(dense(kernels.I8, 18, 1<<16)))
	add("dense-D32f-t18-2^18-2socket", sockets(dense(kernels.F32, 18, 1<<18)))
	add("sparse-D8-t18-2^18", sparse(kernels.I8, 18, 1<<18)) // sparse, DRAM-bound gathers
	// Largest tasks first, so the pool's tail is short.
	sort.SliceStable(tasks, func(i, j int) bool { return taskCost(tasks[i]) > taskCost(tasks[j]) })
	return tasks
}

// taskCost estimates a task's simulated accesses.
func taskCost(t simTask) float64 {
	w := t.points[0]
	b := float64(max(w.MiniBatch, 1))
	if w.Sparse {
		return float64(w.Threads) * b * 3 * w.Density * float64(w.ModelSize)
	}
	return float64(w.Threads) * b * float64(w.ModelSize) * (2*w.D.Bytes() + 3*w.M.Bytes())
}

// pointRun is one simulated point's outcome and host time.
type pointRun struct {
	w    machine.Workload
	res  *machine.Result
	dur  time.Duration
	memo bool // the second point of a pair, answered from the memo
}

// simulateGrid runs one repetition through the pool and returns every
// point's outcome and the repetition's wall time.
func simulateGrid(rec *recorder, tasks []simTask, workers int) ([][]pointRun, time.Duration, error) {
	mc := machine.Xeon()
	op := rec.op()
	root := rec.begin("grid", "sweep", 0, op)
	start := time.Now()
	runs, err := sweep.Map(workers, len(tasks), func(i int) ([]pointRun, error) {
		out := make([]pointRun, 0, len(tasks[i].points))
		for k, w := range tasks[i].points {
			id := rec.begin(tasks[i].name, "machine", root, op)
			t := time.Now()
			r, err := machine.Simulate(mc, w)
			d := time.Since(t)
			rec.end(id)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tasks[i].name, err)
			}
			out = append(out, pointRun{w: w, res: r, dur: d, memo: k > 0})
		}
		return out, nil
	})
	wall := time.Since(start)
	rec.end(root)
	return runs, wall, err
}

// checkGrid applies the sim-sweep correctness checks to one repetition.
func checkGrid(o *outcome, tasks []simTask, runs [][]pointRun) {
	lineSize := machine.Xeon().Cache.LineSize
	maxSim := machine.Xeon().MaxSimElements
	bw := make(map[kernels.Prec]float64)
	for i, t := range tasks {
		for _, p := range runs[i] {
			w, r := p.w, p.res
			simN := min(w.ModelSize, maxSim)
			b := max(w.MiniBatch, 1)
			var per uint64
			if w.Sparse {
				nnz := max(int(w.Density*float64(simN)), 1)
				per = sparseAccessesPerStep(nnz, w.D.Bytes(), float64(w.IdxBits)/8, b, lineSize)
			} else {
				per = denseAccessesPerStep(simN, w.D.Bytes(), w.M.Bytes(), b, lineSize)
				if w.Threads == 1 && w.Variant == kernels.HandOpt && w.Prefetch {
					o.check(checkSingleThreadGNPS(t.name, r.GNPS, w.D.Bytes()))
				}
				if w.Threads == 18 && w.ModelSize == 1<<20 && w.Variant == kernels.HandOpt {
					bw[w.D] = r.GNPS
				}
			}
			o.check(checkAccesses(t.name, r.Access.Total().Accesses, r.MeasuredSteps, w.Threads, per))
		}
	}
	o.check(checkPrecisionOrder(bw[kernels.I8], bw[kernels.I16], bw[kernels.F32]))
}

func simSweep(e *env) (*outcome, error) {
	o := &outcome{}
	workers := runtime.NumCPU()

	// Set-up: build the machine and the grid and validate every distinct
	// cache geometry in it, so a bad grid fails before any point runs.
	// Each of the 31 repetitions starts from a collected heap; the set-up
	// takes about 10 ms, so a single one moves with the host's load.
	pre := time.Since(processStart).Seconds()
	var setups []float64
	for i := 0; i < 31; i++ {
		freeHeap()
		t := time.Now()
		if err := validateGeometries(simGrid(e.seed)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	setup := setupTime(pre, setups)

	var walls, tracedWalls, rss []float64
	var sPerDense, sPerSparse []float64
	var simAccesses, repAccesses float64
	var pointSeconds, busy, poolWall float64
	sampler := startRSS()
	defer sampler.stop()
	start := time.Now()
	for rep := 0; !deadline(start, e.seconds, rep, 3); rep++ {
		// Repetition r simulates the grid under its own seed; see simGrid.
		g := simGrid(e.seed*1000 + uint64(rep))
		// The traced run alternates untraced and traced repetitions, so
		// the difference between the two is the tracing overhead.
		traced := e.trace && rep%2 == 1
		var rec *recorder
		if traced {
			rec = e.rec
		}
		runs, wall, err := simulateGrid(rec, g, workers)
		if err != nil {
			return nil, err
		}
		rss = append(rss, sampler.take())
		o.attempted += countPoints(g)
		checkGrid(o, g, runs)
		if traced {
			tracedWalls = append(tracedWalls, wall.Seconds())
		} else {
			walls = append(walls, wall.Seconds())
		}
		var busyRep float64
		for _, tr := range runs {
			for _, p := range tr {
				busyRep += p.dur.Seconds()
				if p.memo {
					continue
				}
				acc := float64(p.res.Access.Total().Accesses)
				if rep == 0 {
					repAccesses += acc
				}
				// The timing model runs warm-up rounds before the
				// measured ones: 2 + 3 rounds, so 5/3 of the counted.
				simAccesses += acc * 5 / 3
				pointSeconds += p.dur.Seconds()
				if p.w.Sparse {
					sPerSparse = append(sPerSparse, p.dur.Seconds())
				} else {
					sPerDense = append(sPerDense, p.dur.Seconds())
				}
			}
		}
		busy += busyRep
		poolWall += wall.Seconds() * float64(min(workers, len(g)))
	}

	if !e.trace {
		o.set("setup_s", setup, "s")
		o.set("peak_rss_mb", median(rss), "MB")
		o.set("work_s", median(walls), "s")
		o.set("latency_ms", median(append(sPerDense, sPerSparse...))*1e3, "ms")
		o.set("throughput_per_s", simAccesses/pointSeconds, "1/s")
		return o, nil
	}
	p, err := layerProbe(e, o, nil)
	if err != nil {
		return nil, err
	}
	dense, sparse := p.cacheDense, p.cacheSp
	o.set("machine.s_per_point.dense", median(sPerDense), "s")
	o.set("machine.s_per_point.sparse", median(sPerSparse), "s")
	nsPerAccess := pointSeconds / simAccesses * 1e9
	o.set("machine.ns_per_access", nsPerAccess, "ns")
	o.set("machine.self_ns_per_access", nsPerAccess-(dense.nsPerAccess*dense.accesses+sparse.nsPerAccess*sparse.accesses)/(dense.accesses+sparse.accesses), "ns")
	o.set("machine.accesses", repAccesses, "count")
	o.set("sweep.busy_share", busy/poolWall, "1")
	o.set("trace.overhead_share", median(tracedWalls)/median(walls)-1, "1")
	setSelfTimes(o, e.rec, "grid")
	return o, nil
}

// validateGeometries builds one cache hierarchy per distinct geometry of
// the grid, surfacing a configuration error before any point is timed.
func validateGeometries(tasks []simTask) error {
	seen := make(map[[3]int]bool)
	for _, t := range tasks {
		w := t.points[0]
		key := [3]int{w.Threads, w.Sockets, int(w.Obstinacy * 100)}
		if seen[key] {
			continue
		}
		seen[key] = true
		cc := machine.Xeon().Cache
		cc.Cores, cc.Prefetch, cc.Obstinacy = w.Threads, w.Prefetch, w.Obstinacy
		if w.Sockets > 1 {
			cc.CoresPerSocket = (w.Threads + w.Sockets - 1) / w.Sockets
		}
		if _, err := cache.New(cc); err != nil {
			return fmt.Errorf("grid geometry %v: %w", key, err)
		}
	}
	return nil
}

func countPoints(tasks []simTask) int {
	n := 0
	for _, t := range tasks {
		n += len(t.points)
	}
	return n
}

// countingSink is the benchmark's own trace sink: it counts accesses.
type countingSink struct{ n uint64 }

func (s *countingSink) Record(int, trace.Kind, bool, int, bool) { s.n++ }

// cacheDrive is the cache layer measured alone.
type cacheDrive struct {
	nsPerAccess, accesses, allocBytes float64
}

// driveCache replays trace.Dense or trace.Sparse steps into a fresh
// 18-core hierarchy at the grid's L3-resident operating point (2^16 D8
// elements, prefetch on) for about a second, round-robin over the cores
// as the timing model does, and reports the cache's cost per access.
func driveCache(e *env, sparse bool) (cacheDrive, error) {
	cc := machine.Xeon().Cache
	cc.Cores, cc.Prefetch, cc.Seed = 18, true, e.seed
	h, err := cache.New(cc)
	if err != nil {
		return cacheDrive{}, err
	}
	const n = 1 << 16
	snk := &countingSink{}
	rng := prng.NewXorshift64(e.seed ^ 0x5EED)
	dcfg := trace.DenseConfig{ModelElems: n, DatasetBytesPerElem: 1, ModelBytesPerElem: 1, MiniBatch: 1, Regions: trace.DefaultRegions()}
	scfg := trace.SparseConfig{ModelElems: n, NNZ: n * 3 / 100, ValueBytesPerElem: 1, IndexBytesPerElem: 1,
		ModelBytesPerElem: 1, MiniBatch: 1, Regions: trace.DefaultRegions()}
	name := "dense"
	if sparse {
		name = "sparse"
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	id := e.rec.begin("drive-"+name, "cache", 0, e.rec.op())
	start := time.Now()
	var offset uint64
	for round := 0; time.Since(start) < time.Second; round++ {
		for c := 0; c < cc.Cores; c++ {
			if sparse {
				err = trace.Sparse(h, snk, c, scfg, offset, rng)
			} else {
				err = trace.Dense(h, snk, c, dcfg, offset)
			}
			if err != nil {
				return cacheDrive{}, err
			}
		}
		offset += 1 << 17 // past one example, so each round streams fresh data
	}
	el := time.Since(start)
	e.rec.end(id)
	runtime.ReadMemStats(&ms1)
	acc := float64(snk.n)
	return cacheDrive{nsPerAccess: float64(el.Nanoseconds()) / acc, accesses: acc,
		allocBytes: float64(ms1.TotalAlloc - ms0.TotalAlloc)}, nil
}
