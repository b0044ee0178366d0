package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"buckwild"
	"buckwild/internal/kernels"
	"buckwild/internal/metrics"
	"buckwild/internal/prng"
)

// The train-host workload: real host SGD through buckwild.Train with one
// worker. kernels, core and cluster do nearly all the work; the cache
// simulator does none.

// Every gated figure comes from a Train call of a few seconds on a
// 2-CPU Xeon host (about 3 s each for D8M8, D32fM32f, sparse and the two
// cluster runs together, about 2 s to the target loss), since sub-second
// calls on a shared host spread by up to 40%. A round runs each once; a
// 30 s run holds two rounds and reports their median.
const (
	// Dense runs: n = 256 is where D8M8 learns steadily on the paper's
	// generator at this step size: over 36 epochs of 20,000 examples its
	// loss stays at 0.51-0.57. At n = 512 its loss drifts back to about
	// ln 2 within 80k steps, and at n = 4096 the rounding noise drowns the
	// signal and the loss climbs above ln 2.
	denseN, denseM = 256, 20000
	// Sparse D8i8M8 runs at the paper's 3% density.
	sparseN, sparseM, sparseDensity = 16384, 10000, 0.03

	d8Epochs, d16Epochs, f32Epochs, sparseEpochs = 36, 4, 27, 20
	// numHealthEpochs is the length of the traced run's D8M8 run with
	// NumHealth on, which costs about 2.5× plain D8M8 per element.
	numHealthEpochs = 8

	// The time-to-loss run trains one fixed D8M8 instance (dataset and
	// rounding seed do not follow --seed) until the per-epoch loss
	// reaches ttlTarget. Its epoch count is then a property of the
	// algorithm, not of the seed, and the timing moves only with the
	// host code. With fewer examples than dimensions the instance is
	// separable, so its loss falls steadily, and it crosses the target
	// between epochs 25 (0.097) and 26 (0.075), away from either side.
	ttlN, ttlM, ttlSeed = 4096, 2000, 1
	ttlTarget           = 0.08
	ttlMaxEpochs        = 60

	// Cluster runs: 8 simulated nodes, 8 examples per gradient message,
	// 8-bit wire, over the D32fM32f dataset.
	clusterNodes, clusterBatch, clusterEpochs = 8, 8, 28
)

// Final-loss tolerances against the float64 reference SGD. The rounding
// noise of an 8-bit model keeps D8M8 well above the reference's loss at
// this step size; 16-bit and float runs track it closely.
var lossTol = map[string]float64{"D8M8": 0.30, "D16M16": 0.03, "D32fM32f": 0.005, "D8i8M8": 0.30}

var (
	denseEta  = float32(6.0 / denseN)
	ttlEta    = float32(6.0 / ttlN)
	sparseEta = float32(6.0 / (sparseDensity * sparseN))
)

type trainData struct {
	d8, d16, f32, ttl *buckwild.DenseDataset
	sp                *buckwild.SparseDataset
}

func genTrainData(seed uint64) (*trainData, error) {
	var d trainData
	var err error
	if d.d8, err = buckwild.GenerateDense("D8M8", denseN, denseM, seed); err != nil {
		return nil, err
	}
	if d.d16, err = buckwild.GenerateDense("D16M16", denseN, denseM, seed); err != nil {
		return nil, err
	}
	if d.f32, err = buckwild.GenerateDense("D32fM32f", denseN, denseM, seed); err != nil {
		return nil, err
	}
	if d.sp, err = buckwild.GenerateSparse("D8i8M8", sparseN, sparseM, sparseDensity, seed); err != nil {
		return nil, err
	}
	if d.ttl, err = buckwild.GenerateDense("D8M8", ttlN, ttlM, ttlSeed); err != nil {
		return nil, err
	}
	return &d, nil
}

// timed runs one Train call as a span of layer and returns its result
// and host time.
func timed(rec *recorder, parent, op int, name, layer string, cfg buckwild.Config, ds buckwild.Dataset) (*buckwild.Result, time.Duration, error) {
	id := rec.begin(name, layer, parent, op)
	t := time.Now()
	res, err := buckwild.Train(cfg, ds)
	d := time.Since(t)
	rec.end(id)
	if err != nil {
		return nil, d, fmt.Errorf("%s: %w", name, err)
	}
	return res, d, nil
}

// ttlHook stops a run once its per-epoch loss reaches the target and
// notes when that happened.
type ttlHook struct {
	buckwild.NopHooks
	start  time.Time
	cancel context.CancelFunc
	at     time.Duration
	epoch  int
	best   float64
}

func (h *ttlHook) OnEpoch(ei buckwild.EpochInfo) {
	h.best = math.Min(h.best, ei.Loss)
	if h.epoch == 0 && ei.Loss <= ttlTarget {
		h.at, h.epoch = time.Since(h.start), ei.Epoch
		h.cancel()
	}
}

// trainToTarget runs D8M8 on the fixed instance until the loss reaches
// ttlTarget and returns the wall time from calling Train.
func trainToTarget(rec *recorder, parent, op int, ds *buckwild.DenseDataset) (*ttlHook, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	h := &ttlHook{cancel: cancel, best: math.Inf(1)}
	cfg := buckwild.Config{Signature: "D8M8", Epochs: ttlMaxEpochs, StepSize: ttlEta, Seed: ttlSeed, Hooks: h, Context: ctx}
	id := rec.begin("train-to-target", "core", parent, op)
	h.start = time.Now()
	_, err := buckwild.Train(cfg, ds)
	rec.end(id)
	if err != nil && !(h.epoch > 0 && errors.Is(err, context.Canceled)) {
		return nil, fmt.Errorf("train-to-target: %w", err)
	}
	return h, nil
}

// trainRound is one round's timings.
type trainRound struct {
	d8, f32, sparse, numHealth time.Duration
	ttl                        float64
	ps, ar                     time.Duration
	wall                       time.Duration
}

func trainHost(e *env) (*outcome, error) {
	o := &outcome{}
	// Set-up, five times from a collected heap: generate the datasets.
	pre := time.Since(processStart).Seconds()
	var setups []float64
	var d *trainData
	for i := 0; i < 5; i++ {
		d = nil
		freeHeap()
		id := e.rec.begin("generate", "dataset", 0, e.rec.op())
		t := time.Now()
		var err error
		if d, err = genTrainData(e.seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		e.rec.end(id)
	}
	setup := setupTime(pre, setups)

	cfg := func(sig string, epochs int) buckwild.Config {
		return buckwild.Config{Signature: sig, Epochs: epochs, StepSize: denseEta, Seed: e.seed}
	}
	cfg8, cfg32 := cfg("D8M8", d8Epochs), cfg("D32fM32f", f32Epochs)
	cfgSp := buckwild.Config{Signature: "D8i8M8", Epochs: sparseEpochs, StepSize: sparseEta, Seed: e.seed}
	cfgNH := cfg("D8M8", numHealthEpochs)
	cfgNH.NumHealth = true
	cluster := func(p buckwild.ClusterProtocol) buckwild.Config {
		c := cfg("D32fM32f", clusterEpochs)
		c.Cluster = buckwild.ClusterConfig{Nodes: clusterNodes, Protocol: p, WireBits: 8, BatchPerNode: clusterBatch}
		return c
	}
	cfgPS, cfgAR := cluster(buckwild.ParameterServer), cluster(buckwild.AllReduceProtocol)

	var rounds, tracedRounds []trainRound
	var last struct{ d8, f32, sp, ps, ar *buckwild.Result }
	var ttlEpochs int
	start := time.Now()
	for round := 0; !deadline(start, e.seconds, round, 2); round++ {
		// The traced run alternates untraced and traced rounds; the
		// difference between the two is the tracing overhead.
		traced := e.trace && round%2 == 1
		var rec *recorder
		if traced {
			rec = e.rec
		}
		op := rec.op()
		root := rec.begin("round", "bench", 0, op)
		t0 := time.Now()
		var r trainRound
		var err error
		if last.d8, r.d8, err = timed(rec, root, op, "train-d8", "core", cfg8, d.d8); err != nil {
			return nil, err
		}
		if last.f32, r.f32, err = timed(rec, root, op, "train-f32", "core", cfg32, d.f32); err != nil {
			return nil, err
		}
		if last.sp, r.sparse, err = timed(rec, root, op, "train-sparse", "core", cfgSp, d.sp); err != nil {
			return nil, err
		}
		h, err := trainToTarget(rec, root, op, d.ttl)
		if err != nil {
			return nil, err
		}
		o.check(checkTarget("train-to-target", h.epoch > 0, h.best, ttlTarget))
		r.ttl, ttlEpochs = h.at.Seconds(), h.epoch
		if last.ps, r.ps, err = timed(rec, root, op, "cluster-ps", "cluster", cfgPS, d.f32); err != nil {
			return nil, err
		}
		if last.ar, r.ar, err = timed(rec, root, op, "cluster-allreduce", "cluster", cfgAR, d.f32); err != nil {
			return nil, err
		}
		o.attempted += 6
		if e.trace {
			if _, r.numHealth, err = timed(rec, root, op, "train-d8-numhealth", "core", cfgNH, d.d8); err != nil {
				return nil, err
			}
			o.attempted++
		}
		r.wall = time.Since(t0)
		rec.end(root)
		if traced {
			tracedRounds = append(tracedRounds, r)
		} else {
			rounds = append(rounds, r)
		}
	}

	// Correctness, after the timed window: the final losses against the
	// benchmark's own float64 SGD, and the cluster census.
	r16, _, err := timed(nil, 0, 0, "train-d16", "core", cfg("D16M16", d16Epochs), d.d16)
	if err != nil {
		return nil, err
	}
	o.attempted++
	o.check(checkDense("D8M8", last.d8, d.d8, d8Epochs))
	o.check(checkDense("D16M16", r16, d.d16, d16Epochs))
	o.check(checkDense("D32fM32f", last.f32, d.f32, f32Epochs))
	o.check(checkSparse(last.sp, d.sp, sparseEpochs))
	for _, c := range []struct {
		name string
		res  *buckwild.Result
		want uint64
	}{
		{"cluster param-server", last.ps, psMessages(clusterNodes, clusterBatch, denseM, clusterEpochs)},
		{"cluster all-reduce", last.ar, arMessages(clusterNodes, clusterBatch, denseM, clusterEpochs)},
	} {
		s := c.res.Cluster
		o.check(checkCluster(c.name, clusterCensus{Messages: s.Messages, WireBytes: s.WireBytes,
			HeaderBytes: s.HeaderBytes, GradBytes: s.GradBytes, ModelBytes: s.ModelBytes}, c.want))
		if final := c.res.TrainLoss[len(c.res.TrainLoss)-1]; !(final < math.Ln2) {
			o.check(fmt.Errorf("%s: final loss %.6g is not below ln 2", c.name, final))
		}
	}
	msgs := float64(last.ps.Cluster.Messages + last.ar.Cluster.Messages)

	dense := func(epochs int) float64 { return float64(epochs) * denseM * denseN }
	pick := func(rs []trainRound, f func(trainRound) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	if !e.trace {
		o.set("setup_s", setup, "s")
		o.set("peak_rss_mb", peakRSSMB(), "MB")
		o.set("work_s", pick(rounds, func(r trainRound) float64 { return (r.d8 + r.f32 + r.sparse).Seconds() }), "s")
		o.set("latency_ms", pick(rounds, func(r trainRound) float64 { return r.ttl * 1e3 }), "ms")
		o.set("throughput_per_s", pick(rounds, func(r trainRound) float64 { return msgs / (r.ps + r.ar).Seconds() }), "1/s")
		// The calls work_s adds up, one by one.
		o.set("train_d8_gnps", pick(rounds, func(r trainRound) float64 { return dense(d8Epochs) / r.d8.Seconds() / 1e9 }), "GNPS")
		o.set("train_f32_gnps", pick(rounds, func(r trainRound) float64 { return dense(f32Epochs) / r.f32.Seconds() / 1e9 }), "GNPS")
		o.set("train_sparse_gnps", pick(rounds, func(r trainRound) float64 {
			return float64(sparseEpochs) * float64(d.sp.NNZ()) / r.sparse.Seconds() / 1e9
		}), "GNPS")
		return o, nil
	}

	// Layer figures. The probe times the kernels at this workload's
	// operating point (n = 256, the weights of a short training run,
	// step-sized scalars), so they reconcile with the engine's time per
	// element.
	p, err := layerProbe(e, o, d)
	if err != nil {
		return nil, err
	}
	k, lossEval := p.kernels, p.lossEval
	all := append(append([]trainRound(nil), rounds...), tracedRounds...)
	perElem := func(f func(trainRound) time.Duration, epochs int, eval float64, numbers float64) float64 {
		return pick(all, func(r trainRound) float64 {
			return (f(r).Seconds() - float64(epochs+1)*eval) / numbers * 1e9
		})
	}
	core8 := perElem(func(r trainRound) time.Duration { return r.d8 }, d8Epochs, lossEval.dense, dense(d8Epochs))
	core32 := perElem(func(r trainRound) time.Duration { return r.f32 }, f32Epochs, lossEval.dense, dense(f32Epochs))
	o.set("core.ns_per_elem.d8", core8, "ns")
	o.set("core.ns_per_elem.f32", core32, "ns")
	o.set("core.ns_per_elem.sparse", perElem(func(r trainRound) time.Duration { return r.sparse }, sparseEpochs,
		lossEval.sparse, float64(sparseEpochs)*float64(d.sp.NNZ())), "ns")
	o.set("core.self_ns_per_elem.d8", core8-k["kernels.dot_ns_per_elem.d8"]-k["kernels.axpy_ns_per_elem.d8"], "ns")
	o.set("core.self_ns_per_elem.f32", core32-k["kernels.dot_ns_per_elem.f32"]-k["kernels.axpy_ns_per_elem.f32"], "ns")
	o.set("obs.numhealth_ns_per_elem.d8", perElem(func(r trainRound) time.Duration { return r.numHealth }, numHealthEpochs,
		lossEval.dense, dense(numHealthEpochs)), "ns")
	o.set("core.epochs_to_target", float64(ttlEpochs), "count")
	o.set("dataset.gen_s", median(setups), "s")
	o.set("cluster.host_us_per_msg.ps", pick(all, func(r trainRound) float64 {
		return r.ps.Seconds() / float64(last.ps.Cluster.Messages) * 1e6
	}), "us")
	o.set("cluster.host_us_per_msg.allreduce", pick(all, func(r trainRound) float64 {
		return r.ar.Seconds() / float64(last.ar.Cluster.Messages) * 1e6
	}), "us")
	o.set("cluster.msgs.ps", float64(last.ps.Cluster.Messages), "count")
	o.set("cluster.msgs.allreduce", float64(last.ar.Cluster.Messages), "count")
	o.set("cluster.wire_bytes.ps", float64(last.ps.Cluster.WireBytes), "B")
	o.set("cluster.wire_bytes.allreduce", float64(last.ar.Cluster.WireBytes), "B")
	o.set("trace.overhead_share", pick(tracedRounds, func(r trainRound) float64 { return r.wall.Seconds() })/
		pick(rounds, func(r trainRound) float64 { return r.wall.Seconds() })-1, "1")
	setSelfTimes(o, e.rec, "round")
	return o, nil
}

// checkDense compares a dense run's final loss with the float64
// reference SGD over the same quantized examples, order and steps.
func checkDense(sig string, res *buckwild.Result, ds *buckwild.DenseDataset, epochs int) error {
	// The examples are decoded once, so the reference's many epochs read
	// plain slices instead of the packed vectors.
	x := decodeRows(ds.Len(), func(int) int { return ds.N }, func(i, j int) float32 { return ds.X[i].At(j) })
	w := refSGD(ds.N, ds.Len(), epochs, float64(denseEta), 1,
		func(i int, w []float64) float64 {
			var s float64
			for j, v := range x[i] {
				s += w[j] * float64(v)
			}
			return s
		},
		func(i int, a float64, w []float64) {
			for j, v := range x[i] {
				w[j] += a * float64(v)
			}
		},
		func(i int) float64 { return float64(ds.Y[i]) })
	ref := refLogLoss(ds.Len(), func(i int) float64 {
		var s float64
		for j, v := range ds.Raw[i] {
			s += w[j] * float64(v)
		}
		return s
	}, func(i int) float64 { return float64(ds.Y[i]) })
	return checkFinalLoss(sig, res.TrainLoss[len(res.TrainLoss)-1], ref, lossTol[sig])
}

// checkSparse is checkDense for the sparse run.
func checkSparse(res *buckwild.Result, ds *buckwild.SparseDataset, epochs int) error {
	val := decodeRows(ds.Len(), func(i int) int { return len(ds.Idx[i]) }, func(i, k int) float32 { return ds.Val[i].At(k) })
	w := refSGD(ds.N, ds.Len(), epochs, float64(sparseEta), 1,
		func(i int, w []float64) float64 {
			var s float64
			for k, j := range ds.Idx[i] {
				s += w[j] * float64(val[i][k])
			}
			return s
		},
		func(i int, a float64, w []float64) {
			for k, j := range ds.Idx[i] {
				w[j] += a * float64(val[i][k])
			}
		},
		func(i int) float64 { return float64(ds.Y[i]) })
	ref := refLogLoss(ds.Len(), func(i int) float64 {
		var s float64
		for k, j := range ds.Idx[i] {
			s += w[j] * float64(ds.RawVal[i][k])
		}
		return s
	}, func(i int) float64 { return float64(ds.Y[i]) })
	return checkFinalLoss("D8i8M8", res.TrainLoss[len(res.TrainLoss)-1], ref, lossTol["D8i8M8"])
}

// decodeRows reads rows examples of width(i) values each through at
// into one flat backing array, every value exactly as the program stores
// it (8- and 16-bit integers and float32 all fit a float32).
func decodeRows(rows int, width func(i int) int, at func(i, j int) float32) [][]float32 {
	total := 0
	for i := 0; i < rows; i++ {
		total += width(i)
	}
	flat := make([]float32, 0, total)
	out := make([][]float32, rows)
	for i := range out {
		start := len(flat)
		for j := 0; j < width(i); j++ {
			flat = append(flat, at(i, j))
		}
		out[i] = flat[start:len(flat):len(flat)]
	}
	return out
}

type lossEvalTimes struct{ dense, sparse float64 }

// timeLossEval times the engine's per-epoch loss evaluation (package
// metrics) at the workload's dataset sizes; median of five calls each.
func timeLossEval(rec *recorder, d *trainData) lossEvalTimes {
	op := rec.op()
	wd := make([]float32, denseN)
	ws := make([]float32, sparseN)
	var dense, sparse []float64
	for i := 0; i < 5; i++ {
		id := rec.begin("logistic-loss", "metrics", 0, op)
		t := time.Now()
		metrics.LogisticLoss(wd, d.d8.Raw, d.d8.Y)
		dense = append(dense, time.Since(t).Seconds())
		rec.end(id)
		id = rec.begin("sparse-logistic-loss", "metrics", 0, op)
		t = time.Now()
		metrics.SparseLogisticLoss(ws, d.sp.Idx, d.sp.RawVal, d.sp.Y)
		sparse = append(sparse, time.Since(t).Seconds())
		rec.end(id)
	}
	return lossEvalTimes{dense: median(dense), sparse: median(sparse)}
}

// kernelTimings times the SWAR Dot, Axpy and Quantize kernels the way
// the engine calls them: one pass over the dataset's examples in order
// against one model vector, repeated for about a second each: on a
// shared 2-CPU host, quarter-second loops moved by up to a third from one
// run to the next, too much to reconcile with the engine's time.
func kernelTimings(rec *recorder, seed uint64, d *trainData, w8, w16, w32, wsp []float32) (map[string]float64, error) {
	out := make(map[string]float64)
	op := rec.op()
	const budget = time.Second
	type dense struct {
		name string
		p    kernels.Prec
		ds   *buckwild.DenseDataset
		w    []float32
	}
	for _, c := range []dense{{"d8", kernels.I8, d.d8, w8}, {"d16", kernels.I16, d.d16, w16}, {"f32", kernels.F32, d.f32, w32}} {
		var q *kernels.Quantizer
		var err error
		if c.p != kernels.F32 {
			if q, err = kernels.NewQuantizer(c.p, kernels.QShared, 8, seed|1); err != nil {
				return nil, err
			}
		}
		k, err := kernels.NewDense(c.p, c.p, kernels.HandOpt, q)
		if err != nil {
			return nil, err
		}
		w := kernels.NewVec(c.p, denseN)
		w.Fill(c.w, q)
		var sink float32
		id := rec.begin("dot-"+c.name, "kernels", 0, op)
		calls, el := loop(budget, c.ds.Len(), func(i int) { sink += k.Dot(c.ds.X[i], w) })
		rec.end(id)
		out["kernels.dot_ns_per_elem."+c.name] = el / float64(calls*denseN)
		a := stepScalars(c.ds.Len(), denseEta, c.ds.Y, func(i int) float64 {
			var s float64
			for j, v := range c.w {
				s += float64(v) * float64(c.ds.X[i].At(j))
			}
			return s
		})
		id = rec.begin("axpy-"+c.name, "kernels", 0, op)
		calls, el = loop(budget, c.ds.Len(), func(i int) {
			if i == 0 { // each pass starts again from the trained model
				w.Fill(c.w, q)
			}
			k.Axpy(a[i], c.ds.X[i], w)
		})
		rec.end(id)
		out["kernels.axpy_ns_per_elem."+c.name] = el / float64(calls*denseN)
		_ = sink
	}

	q, err := kernels.NewQuantizer(kernels.I8, kernels.QShared, 8, seed|1)
	if err != nil {
		return nil, err
	}
	ks, err := kernels.NewSparse(kernels.I8, kernels.I8, kernels.HandOpt, q, 8)
	if err != nil {
		return nil, err
	}
	ws := kernels.NewVec(kernels.I8, sparseN)
	ws.Fill(wsp, q)
	nnz := d.sp.NNZ() / d.sp.Len()
	var sink float32
	id := rec.begin("sparse-dot-d8", "kernels", 0, op)
	calls, el := loop(budget, d.sp.Len(), func(i int) { sink += ks.Dot(d.sp.Idx[i], d.sp.Val[i], ws) })
	rec.end(id)
	out["kernels.sparse_dot_ns_per_nnz.d8"] = el / float64(calls*nnz)
	a := stepScalars(d.sp.Len(), sparseEta, d.sp.Y, func(i int) float64 {
		var s float64
		for k, j := range d.sp.Idx[i] {
			s += float64(wsp[j]) * float64(d.sp.Val[i].At(k))
		}
		return s
	})
	id = rec.begin("sparse-axpy-d8", "kernels", 0, op)
	calls, el = loop(budget, d.sp.Len(), func(i int) {
		if i == 0 {
			ws.Fill(wsp, q)
		}
		ks.Axpy(a[i], d.sp.Idx[i], d.sp.Val[i], ws)
	})
	rec.end(id)
	out["kernels.sparse_axpy_ns_per_nnz.d8"] = el / float64(calls*nnz)
	_ = sink

	// The wire quantizer's input: a gradient scaled into the 8-bit
	// format's range, one value per model coordinate.
	g := prng.NewXorshift64(seed | 1)
	vals := make([]float32, denseN)
	for i := range vals {
		vals[i] = (prng.Float32(g)*2 - 1) * 1.9
	}
	var qs int32
	id = rec.begin("quantize-d8", "kernels", 0, op)
	calls, el = loop(budget, 1, func(int) {
		for _, v := range vals {
			qs += q.Quantize(v)
		}
	})
	rec.end(id)
	out["kernels.quantize_ns_per_elem.d8"] = el / float64(calls*denseN)
	_ = qs
	return out, nil
}

// stepScalars returns the logistic step's Axpy scalar η·y·σ(−y·w·x) for
// every example at the trained weights, so the timed updates have the
// engine's magnitudes and keep the model where training left it.
func stepScalars(n int, eta float32, y []float32, dot func(i int) float64) []float32 {
	a := make([]float32, n)
	for i := range a {
		yi := float64(y[i])
		a[i] = float32(float64(eta) * yi * sigmoid(-yi*dot(i)))
	}
	return a
}

// loop calls f(i) for i cycling over [0, n) until budget has passed and
// returns the call count and the elapsed nanoseconds.
func loop(budget time.Duration, n int, f func(i int)) (int, float64) {
	start := time.Now()
	calls := 0
	for time.Since(start) < budget {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return calls, float64(time.Since(start).Nanoseconds())
}
