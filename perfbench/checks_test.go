package main

import (
	"math"
	"strings"
	"testing"

	"buckwild"
	"buckwild/internal/kernels"
	"buckwild/internal/machine"
)

// Each correctness check passes on the right answer and fails when handed
// a wrong one.

func TestCheckPredictionAgainstModel(t *testing.T) {
	w := []float32{0.25, -0.5, 0.125, 1.5, -0.75}
	x := []float32{0.3, 0.1, -0.9, 0.4, 0.2}
	m, err := buckwild.NewModel("D8M8", w)
	if err != nil {
		t.Fatal(err)
	}
	margin, err := m.PredictDense(x)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkPrediction(margin, w, x); err != nil {
		t.Errorf("the facade's own prediction failed the check: %v", err)
	}
	if err := checkPrediction(margin+1e-3, w, x); err == nil {
		t.Error("a perturbed prediction passed the check")
	}
	if err := checkPrediction(float32(math.NaN()), w, x); err == nil {
		t.Error("a NaN prediction passed the check")
	}
}

func TestCheckTarget(t *testing.T) {
	if err := checkTarget("run", true, 0.14, 0.15); err != nil {
		t.Errorf("loss below target failed: %v", err)
	}
	if err := checkTarget("run", true, 0.16, 0.15); err == nil {
		t.Error("a loss above target passed")
	}
	if err := checkTarget("run", false, 0.14, 0.15); err == nil {
		t.Error("a run that never stopped at the target passed")
	}
}

func TestCheckFinalLoss(t *testing.T) {
	if err := checkFinalLoss("D32fM32f", 0.30, 0.301, 0.005); err != nil {
		t.Errorf("a matching loss failed: %v", err)
	}
	if err := checkFinalLoss("D32fM32f", 0.30, 0.31, 0.005); err == nil {
		t.Error("a loss off the reference by more than the tolerance passed")
	}
	if err := checkFinalLoss("D8M8", 0.70, 0.69, 0.3); err == nil {
		t.Error("a loss above ln 2 passed")
	}
}

// TestCheckAccessesOnSimulatedPoint runs a real point and checks that the
// derived access count matches it exactly and that one access more or
// less fails.
func TestCheckAccessesOnSimulatedPoint(t *testing.T) {
	w := machine.Workload{D: kernels.I8, M: kernels.I8, Variant: kernels.HandOpt, Quant: kernels.QShared,
		QuantPeriod: 8, ModelSize: 4096, Threads: 2, Prefetch: true, Seed: 7}
	r, err := machine.Simulate(machine.Xeon(), w)
	if err != nil {
		t.Fatal(err)
	}
	per := denseAccessesPerStep(4096, 1, 1, 1, machine.Xeon().Cache.LineSize)
	if per != 320 { // 2·64 example lines + 64 model lines + 2·64 model lines
		t.Fatalf("per-step accesses = %d, want 320", per)
	}
	got := r.Access.Total().Accesses
	if err := checkAccesses("p", got, r.MeasuredSteps, 2, per); err != nil {
		t.Errorf("the simulator's count failed: %v", err)
	}
	for _, off := range []uint64{got + 1, got - 1} {
		if err := checkAccesses("p", off, r.MeasuredSteps, 2, per); err == nil {
			t.Errorf("an access count off by one (%d for %d) passed", off, got)
		}
	}
	if err := checkSingleThreadGNPS("p", 3.5, 1); err != nil {
		t.Errorf("3.5 GNPS at one byte per element failed: %v", err)
	}
	if err := checkSingleThreadGNPS("p", 3.5, 2); err == nil {
		t.Error("3.5 GNPS at two bytes per element passed")
	}
}

func TestCheckPrecisionOrder(t *testing.T) {
	if err := checkPrecisionOrder(57, 29, 14); err != nil {
		t.Error(err)
	}
	if err := checkPrecisionOrder(29, 57, 14); err == nil {
		t.Error("D16 above D8 passed")
	}
}

// TestClusterCensus pins the derived message counts to the census the
// cluster package's own tests state, and checks both failure modes.
func TestClusterCensus(t *testing.T) {
	if got := psMessages(4, 8, 1024, 3); got != 4+2*4*32*3 {
		t.Errorf("psMessages = %d, want %d", got, 4+2*4*32*3)
	}
	if got := arMessages(4, 8, 1024, 3); got != 32*3*4*3 {
		t.Errorf("arMessages = %d, want %d", got, 32*3*4*3)
	}
	ok := clusterCensus{Messages: 10, WireBytes: 100, HeaderBytes: 40, GradBytes: 50, ModelBytes: 10}
	if err := checkCluster("ps", ok, 10); err != nil {
		t.Error(err)
	}
	if err := checkCluster("ps", ok, 11); err == nil {
		t.Error("a message count off by one passed")
	}
	bad := ok
	bad.WireBytes++
	if err := checkCluster("ps", bad, 10); err == nil {
		t.Error("broken framing passed")
	}
}

// TestClusterCensusOnRun checks the derived counts against a real run.
func TestClusterCensusOnRun(t *testing.T) {
	ds, err := buckwild.GenerateDense("D32fM32f", 16, 1000, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p    buckwild.ClusterProtocol
		want uint64
	}{
		{buckwild.ParameterServer, psMessages(8, 8, 1000, 2)},
		{buckwild.AllReduceProtocol, arMessages(8, 8, 1000, 2)},
	} {
		res, err := buckwild.Train(buckwild.Config{Signature: "D32fM32f", Epochs: 2, StepSize: 0.1, Seed: 3,
			Cluster: buckwild.ClusterConfig{Nodes: 8, Protocol: c.p, WireBits: 8, BatchPerNode: 8}}, ds)
		if err != nil {
			t.Fatal(err)
		}
		s := res.Cluster
		if err := checkCluster(string(c.p), clusterCensus{s.Messages, s.WireBytes, s.HeaderBytes, s.GradBytes, s.ModelBytes}, c.want); err != nil {
			t.Error(err)
		}
	}
}

func TestServeChecks(t *testing.T) {
	if err := checkMonotone(0, []uint64{1, 1, 2, 5}); err != nil {
		t.Error(err)
	}
	if err := checkMonotone(0, []uint64{1, 3, 2}); err == nil {
		t.Error("a promotion tag going back passed")
	}
	if err := checkServed(10, 10); err != nil {
		t.Error(err)
	}
	if err := checkServed(10, 11); err == nil {
		t.Error("a served-count mismatch passed")
	}
	out := "served 26790 requests (27000 examples), p50 90us p99 900us; 0 rejected, 30 promotions (0 refused)\n"
	if n, ok := servedCount(out); !ok || n != 26790 {
		t.Errorf("servedCount = %d, %v", n, ok)
	}
	if err := checkDrain(out); err != nil {
		t.Error(err)
	}
	if err := checkDrain("panic: boom\n"); err == nil {
		t.Error("an exit without a drain report passed")
	}
}

// TestRefSGDMatchesEngine checks the float64 reference against the
// engine's float run, which it should track to float32 rounding.
func TestRefSGDMatchesEngine(t *testing.T) {
	ds, err := buckwild.GenerateDense("D32fM32f", 32, 400, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := buckwild.Train(buckwild.Config{Signature: "D32fM32f", Epochs: 2, StepSize: denseEta, Seed: 5}, ds)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDense("D32fM32f", res, ds, 2); err != nil {
		t.Error(err)
	}
	res.TrainLoss[len(res.TrainLoss)-1] += 0.01
	if err := checkDense("D32fM32f", res, ds, 2); err == nil || !strings.Contains(err.Error(), "reference") {
		t.Errorf("a loss 0.01 off the reference passed: %v", err)
	}
}
