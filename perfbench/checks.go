package main

import (
	"fmt"
	"math"
)

// The correctness checks. Each compares a program output with a value the
// benchmark derives on its own, or with a property the method must have,
// and returns an error naming the mismatch. They are pure functions so
// that each can be shown to fail when handed a wrong answer.

// coreBandwidthGBs is the simulated Xeon's per-core streaming bandwidth:
// a single-thread dense point with hand-optimized kernels is bound by it,
// so its GNPS is this over the dataset bytes per element.
const coreBandwidthGBs = 3.5

// checkSingleThreadGNPS checks a single-thread hand-optimized dense point.
func checkSingleThreadGNPS(point string, gnps, datasetBytesPerElem float64) error {
	want := coreBandwidthGBs / datasetBytesPerElem
	if math.Abs(gnps-want) > 1e-9*want {
		return fmt.Errorf("%s: GNPS %.12g, want per-core bandwidth / dataset bytes = %.12g", point, gnps, want)
	}
	return nil
}

// lines is the number of cache lines a region of bytes spans, with the
// byte count rounded up first as the trace generator does.
func lines(elems int, bytesPerElem float64, lineSize int) uint64 {
	b := uint64(math.Ceil(float64(elems) * bytesPerElem))
	return (b + uint64(lineSize) - 1) / uint64(lineSize)
}

// denseAccessesPerStep is the access count of one dense mini-batch step:
// per example a read pass over the example and the model (the dot), a
// second pass over the examples, then a read and a write of every model
// line (the update): 2·B·⌈example lines⌉ + B·⌈model lines⌉ + 2·⌈model lines⌉.
func denseAccessesPerStep(n int, dBytes, mBytes float64, batch, lineSize int) uint64 {
	ex, mod := lines(n, dBytes, lineSize), lines(n, mBytes, lineSize)
	b := uint64(batch)
	return 2*b*ex + b*mod + 2*mod
}

// sparseAccessesPerStep is the access count of one sparse mini-batch
// step: per example one pass over the stored values and indices, a
// gather of every nonzero's model entry, then a read and a write of each.
func sparseAccessesPerStep(nnz int, dBytes, idxBytes float64, batch, lineSize int) uint64 {
	return uint64(batch) * (lines(nnz, dBytes+idxBytes, lineSize) + 3*uint64(nnz))
}

// checkAccesses checks a point's measured access count against steps
// times the per-step count; the measurement window is measRounds rounds
// of one step per core.
func checkAccesses(point string, got uint64, measuredSteps, threads int, perStep uint64) error {
	const measRounds = 3
	if measuredSteps != measRounds*threads {
		return fmt.Errorf("%s: %d measured steps, want %d rounds × %d threads", point, measuredSteps, measRounds, threads)
	}
	if want := uint64(measuredSteps) * perStep; got != want {
		return fmt.Errorf("%s: %d accesses, want %d steps × %d per step = %d", point, got, measuredSteps, perStep, want)
	}
	return nil
}

// checkPrecisionOrder checks that fewer bytes per number means more
// throughput where bandwidth binds: D8 > D16 > D32f.
func checkPrecisionOrder(g8, g16, g32 float64) error {
	if !(g8 > g16 && g16 > g32) {
		return fmt.Errorf("bandwidth-bound GNPS not ordered D8 > D16 > D32f: %.4g, %.4g, %.4g", g8, g16, g32)
	}
	return nil
}

// checkFinalLoss checks a run's final loss: below ln 2 (better than the
// zero model) and within tol of the benchmark's own float64 SGD.
func checkFinalLoss(run string, final, ref, tol float64) error {
	if !(final < math.Ln2) {
		return fmt.Errorf("%s: final loss %.6g is not below ln 2", run, final)
	}
	if math.Abs(final-ref) > tol {
		return fmt.Errorf("%s: final loss %.6g, float64 reference SGD %.6g, differ by more than %g", run, final, ref, tol)
	}
	return nil
}

// checkTarget checks that a run to a target loss got there.
func checkTarget(run string, reached bool, best, target float64) error {
	if !reached || !(best <= target) {
		return fmt.Errorf("%s: best loss %.6g never reached the target %g", run, best, target)
	}
	return nil
}

// clusterCensus is the part of a cluster run's wire statistics checked.
type clusterCensus struct {
	Messages, WireBytes, HeaderBytes, GradBytes, ModelBytes uint64
}

// psMessages is the parameter-server message count: one bootstrap pull
// per node, then per gradient push the push and one model reply.
func psMessages(nodes, batch, examples, epochs int) uint64 {
	var pushes uint64
	for k := 0; k < nodes; k++ {
		lo, hi := k*examples/nodes, (k+1)*examples/nodes
		pushes += uint64((hi - lo + batch - 1) / batch)
	}
	return uint64(nodes) + 2*pushes*uint64(epochs)
}

// arMessages is the all-reduce message count: every round each node
// sends its gradient to every other node; a round count is set by the
// largest shard.
func arMessages(nodes, batch, examples, epochs int) uint64 {
	rounds := 0
	for k := 0; k < nodes; k++ {
		lo, hi := k*examples/nodes, (k+1)*examples/nodes
		rounds = max(rounds, (hi-lo+batch-1)/batch)
	}
	return uint64(rounds*epochs) * uint64(nodes*(nodes-1))
}

// checkCluster checks the framing invariant and the message count.
func checkCluster(run string, c clusterCensus, wantMsgs uint64) error {
	if c.WireBytes != c.HeaderBytes+c.GradBytes+c.ModelBytes {
		return fmt.Errorf("%s: wire bytes %d != header %d + grad %d + model %d", run, c.WireBytes, c.HeaderBytes, c.GradBytes, c.ModelBytes)
	}
	if c.Messages != wantMsgs {
		return fmt.Errorf("%s: %d messages, want %d from nodes, batch, examples and protocol", run, c.Messages, wantMsgs)
	}
	return nil
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// checkPrediction checks one served margin against the benchmark's own
// float64 sigmoid(w·x). The daemon sums in float32, so the two may differ
// by the float32 rounding of an n-term sum: n·2⁻²⁴·Σ|wⱼxⱼ| on the margin,
// at most a quarter of that on the probability.
func checkPrediction(margin float32, w, x []float32) error {
	m := float64(margin)
	if math.IsNaN(m) || math.IsInf(m, 0) {
		return fmt.Errorf("prediction margin %v is not finite", margin)
	}
	p := sigmoid(m)
	if p < 0 || p > 1 {
		return fmt.Errorf("prediction %v outside [0, 1]", p)
	}
	var dot, abs float64
	for j := range w {
		v := float64(w[j]) * float64(x[j])
		dot += v
		abs += math.Abs(v)
	}
	tol := float64(len(w))*0x1p-24*abs/4 + 0x1p-24
	if d := math.Abs(p - sigmoid(dot)); d > tol {
		return fmt.Errorf("prediction %.9g, float64 sigmoid(w·x) over the checkpoint %.9g (|diff| %.3g > %.3g)", p, sigmoid(dot), d, tol)
	}
	return nil
}

// checkMonotone checks that the promotion tags one connection saw never
// go backwards.
func checkMonotone(conn int, tags []uint64) error {
	for i := 1; i < len(tags); i++ {
		if tags[i] < tags[i-1] {
			return fmt.Errorf("connection %d: promotion tag went back from %d to %d", conn, tags[i-1], tags[i])
		}
	}
	return nil
}

// checkServed checks the client's 200 count against the daemon's.
func checkServed(client, daemon uint64) error {
	if client != daemon {
		return fmt.Errorf("client saw %d responses with status 200, daemon reports %d served", client, daemon)
	}
	return nil
}

// refSGD is the benchmark's own float64 logistic-regression SGD: one pass
// per epoch over the examples in order, w ← w + η·y·σ(−y·w·x)·x, with the
// step multiplied by decay after every epoch. Examples are given by dot
// and axpy callbacks so dense and sparse data share it.
func refSGD(n, examples, epochs int, eta, decay float64,
	dot func(i int, w []float64) float64, axpy func(i int, a float64, w []float64), y func(i int) float64) []float64 {
	w := make([]float64, n)
	for e := 0; e < epochs; e++ {
		for i := 0; i < examples; i++ {
			yi := y(i)
			axpy(i, eta*yi*sigmoid(-yi*dot(i, w)), w)
		}
		eta *= decay
	}
	return w
}

// refLogLoss is the mean logistic loss log(1+exp(−y·w·x)) in float64.
func refLogLoss(examples int, dot func(i int) float64, y func(i int) float64) float64 {
	var s float64
	for i := 0; i < examples; i++ {
		z := -y(i) * dot(i)
		if z > 30 {
			s += z
		} else {
			s += math.Log1p(math.Exp(z))
		}
	}
	return s / float64(examples)
}
