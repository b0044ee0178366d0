package main

import (
	"math"

	"buckwild"
	"buckwild/internal/prng"
	"buckwild/internal/run"
)

// The layer probe. Every workload's traced run ends with it, so every
// traced result line carries the same per-layer metrics, each measured in
// that run. It times single layers at the workloads' own operating
// points: the kernels and the loss evaluation at train-host's dataset
// sizes, the cache at sim-sweep's L3-resident point, serving and
// checkpoints at the daemon's model size. The layer figures that need a
// workload's own state (engine, cluster, timing model, pool, live daemon)
// are measured by that workload alone and printed, not carried on the
// result line.

// probeEpochs is the length of the short training runs whose weights the
// kernel timings start from, so the Axpy scalars have a trained model's
// magnitudes: a scalar that underflows its lane skips the update, so the
// kernels' cost depends on them.
const probeEpochs = 2

// probeHistory is the length of the probe checkpoint's loss history, that
// of a daemon some rounds into its run; the history is part of the
// encoded checkpoint, so it sets the write's size with the weights.
const probeHistory = 64

type probeResult struct {
	kernels             map[string]float64
	lossEval            lossEvalTimes
	cacheDense, cacheSp cacheDrive
}

// layerProbe runs the probe over d, train-host's datasets, generating
// them from the seed when the workload has none.
func layerProbe(e *env, o *outcome, d *trainData) (probeResult, error) {
	var p probeResult
	var err error
	if d == nil {
		if d, err = genTrainData(e.seed); err != nil {
			return p, err
		}
	}
	weights := func(sig string, ds buckwild.Dataset, eta float32) ([]float32, error) {
		res, err := buckwild.Train(buckwild.Config{Signature: sig, Epochs: probeEpochs, StepSize: eta, Seed: e.seed}, ds)
		if err != nil {
			return nil, err
		}
		return res.W, nil
	}
	var w [4][]float32
	for i, c := range []struct {
		sig string
		ds  buckwild.Dataset
		eta float32
	}{{"D8M8", d.d8, denseEta}, {"D16M16", d.d16, denseEta}, {"D32fM32f", d.f32, denseEta}, {"D8i8M8", d.sp, sparseEta}} {
		if w[i], err = weights(c.sig, c.ds, c.eta); err != nil {
			return p, err
		}
	}
	if p.kernels, err = kernelTimings(e.rec, e.seed, d, w[0], w[1], w[2], w[3]); err != nil {
		return p, err
	}
	for name, v := range p.kernels {
		o.set(name, v, "ns")
	}
	p.lossEval = timeLossEval(e.rec, d)
	o.set("metrics.loss_eval_s", p.lossEval.dense, "s")

	if p.cacheDense, err = driveCache(e, false); err != nil {
		return p, err
	}
	if p.cacheSp, err = driveCache(e, true); err != nil {
		return p, err
	}
	o.set("cache.ns_per_access.dense", p.cacheDense.nsPerAccess, "ns")
	o.set("cache.ns_per_access.sparse", p.cacheSp.nsPerAccess, "ns")
	o.set("cache.alloc_bytes_per_access", (p.cacheDense.allocBytes+p.cacheSp.allocBytes)/(p.cacheDense.accesses+p.cacheSp.accesses), "B")

	ck, err := probeCheckpoint(e.seed)
	if err != nil {
		return p, err
	}
	g := prng.NewXorshift64(e.seed | 1)
	tmpls := predictTemplates(singleTemplates, batchTemplates, serveN, func() float32 { return prng.Float32(g)*2 - 1 })
	return p, serveLayers(e, o, ck, tmpls)
}

// probeCheckpoint is a D8 checkpoint of the daemon's model size with
// small weights drawn from the seed.
func probeCheckpoint(seed uint64) (checkpoint, error) {
	g := prng.NewXorshift64(seed ^ 0xC4EC)
	ck := &run.Checkpoint{Epoch: probeHistory - 1, Seed: seed, Threads: 1, Prec: "8",
		W8: make([]int8, serveN), TrainLoss: make([]float64, probeHistory)}
	for i := range ck.W8 {
		ck.W8[i] = int8(g.Uint64()%33) - 16
	}
	for i := range ck.TrainLoss {
		ck.TrainLoss[i] = math.Ln2 / float64(i+1)
	}
	w, err := ck.Weights()
	return checkpoint{Checkpoint: ck, w: w}, err
}
