package main

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"buckwild/perfbench/runbench"
)

// TestOpenLoopTimesFromDue stalls one request and checks that the
// requests queued behind it are charged the wait, because each is timed
// from when it was due, while the generator itself stays on schedule.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stallAt, stall = 5, 60 * time.Millisecond
	send := func(conn, tmpl int) (reply, error) {
		if tmpl == stallAt {
			time.Sleep(stall)
		}
		return reply{status: 200}, nil
	}
	rec := newRecorder()
	ss := offer(send, rec, 1000, 40, 1, func(k int) int { return k })
	if len(ss) != 40 {
		t.Fatalf("%d samples, want 40", len(ss))
	}
	for i := range ss {
		s := &ss[i]
		if s.latency() != s.done.Sub(s.due) || s.late() != s.released.Sub(s.due) {
			t.Fatalf("request %d: latency or lateness not measured from the due time", i)
		}
		if s.late() > 20*time.Millisecond {
			t.Errorf("request %d: generator ran %v late", i, s.late())
		}
	}
	// Request 6 fell due 1 ms after the stalled one began and could
	// start only when it ended.
	if l := ss[stallAt+1].latency(); l < stall-5*time.Millisecond {
		t.Errorf("request behind the stall: latency %v, want about %v", l, stall)
	}
	if l := ss[len(ss)-1].latency(); l > stall/2 {
		t.Errorf("last request, due after the backlog cleared: latency %v", l)
	}
	// Two spans per request, sharing an operation id, the wait a child
	// of the request.
	if len(rec.spans) != 80 {
		t.Fatalf("%d spans, want 80", len(rec.spans))
	}
	for i := 0; i < len(rec.spans); i += 2 {
		req, q := rec.spans[i], rec.spans[i+1]
		if req.Op != q.Op || q.Parent != req.ID || req.Layer != "serve" || q.Layer != "loadgen" {
			t.Fatalf("spans %d, %d: %+v %+v", i, i+1, req, q)
		}
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Layer: "sweep", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Layer: "machine", Start: 1 * ms, End: 3 * ms},
		{ID: 3, Parent: 1, Layer: "machine", Start: 2 * ms, End: 5 * ms}, // overlaps span 2
		{ID: 4, Parent: 1, Layer: "machine", Start: 7 * ms, End: 8 * ms},
	}
	st := selfTimes(spans)
	if st["sweep"] != 5*ms || st["machine"] != 6*ms {
		t.Errorf("self times %v, want sweep 5ms (10 minus 4+1 covered), machine 6ms", st)
	}
}

// TestSelfTimePerOpCountsOnlyUnits checks that the per-operation self
// time averages over the unit operations holding the layer and leaves
// out spans of other operations.
func TestSelfTimePerOpCountsOnlyUnits(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Op: 1, Name: "round", Layer: "bench", Start: 0, End: 10 * ms},
		{ID: 2, Op: 1, Parent: 1, Name: "train", Layer: "core", Start: 1 * ms, End: 7 * ms},
		{ID: 3, Op: 2, Name: "round", Layer: "bench", Start: 20 * ms, End: 30 * ms},
		{ID: 4, Op: 2, Parent: 3, Name: "train", Layer: "core", Start: 21 * ms, End: 29 * ms},
		{ID: 5, Op: 3, Name: "dot", Layer: "kernels", Start: 40 * ms, End: 90 * ms}, // not a unit
		{ID: 6, Op: 3, Parent: 5, Name: "train", Layer: "core", Start: 41 * ms, End: 89 * ms},
	}
	st := selfTimesPerOp(spans, "round")
	want := map[string]time.Duration{"bench": 3 * ms, "core": 7 * ms}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("self times per op %v, want %v", st, want)
	}
	// With two kinds of unit, each layer averages over the operations of
	// either kind that hold it.
	st = selfTimesPerOp(spans, "round", "dot")
	want = map[string]time.Duration{"bench": 3 * ms, "core": (6 + 8 + 48) * ms / 3, "kernels": 2 * ms}
	if !reflect.DeepEqual(st, want) {
		t.Errorf("self times per op over two units %v, want %v", st, want)
	}
}

// TestResultCarriesTheManifestMetrics checks that the result line holds
// exactly the manifest's metrics, and that a metric the workload did not
// measure, or measured in another unit, fails the run instead.
func TestResultCarriesTheManifestMetrics(t *testing.T) {
	for _, traced := range []bool{false, true} {
		want, err := manifestNames(filepath.Join("..", manifestFile), traced)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("traced %v: the manifest names no metric", traced)
		}
		o := &outcome{attempted: 1}
		for n, u := range want {
			o.set(n, 1, u)
		}
		o.set("not.in.manifest", 1, "s")
		b, err := encodeResult(o, want)
		if err != nil {
			t.Fatal(err)
		}
		var got runbench.Result
		if err := json.Unmarshal(b, &got); err != nil {
			t.Fatal(err)
		}
		if len(got.Metrics) != len(want) {
			t.Errorf("traced %v: %d metrics on the line, want the manifest's %d", traced, len(got.Metrics), len(want))
		}
	}
	o := &outcome{attempted: 1}
	o.set("setup_s", 1, "ms")
	if _, err := encodeResult(o, map[string]string{"setup_s": "s"}); err == nil {
		t.Error("a metric in the wrong unit was accepted")
	}
	if _, err := encodeResult(o, map[string]string{"setup_s": "ms", "work_s": "s"}); err == nil {
		t.Error("a missing metric was accepted")
	}
}

// TestResultFormat pins the last output line's shape.
func TestResultFormat(t *testing.T) {
	o := &outcome{attempted: 12}
	o.set("latency_ms", 1.25, "ms")
	o.set("setup_s", 0.5, "s")
	want := map[string]string{"latency_ms": "ms", "setup_s": "s"}
	b, err := encodeResult(o, want)
	if err != nil {
		t.Fatal(err)
	}
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(b, &raw); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range raw {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"attempted", "correct", "failed", "metrics"}; !reflect.DeepEqual(keys, want) {
		t.Errorf("keys %v, want %v", keys, want)
	}
	var got struct {
		Correct   bool
		Attempted int
		Failed    int
		Metrics   map[string]map[string]any
	}
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !got.Correct || got.Attempted != 12 || got.Failed != 0 {
		t.Errorf("header %+v", got)
	}
	if m := got.Metrics["latency_ms"]; m["value"] != 1.25 || m["unit"] != "ms" || len(m) != 2 {
		t.Errorf("metric latency_ms = %v", m)
	}
	o.check(errFake("mismatch"))
	if b, _ := encodeResult(o, want); json.Unmarshal(b, &got) != nil || got.Correct {
		t.Error("a failed check left correct true")
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestMixTemplate(t *testing.T) {
	f := mixTemplate(64, 8)
	batches := 0
	for k := 0; k < 160; k++ {
		if f(k) >= 64 {
			batches++
			if k%16 != 15 {
				t.Errorf("request %d is a batch", k)
			}
		}
	}
	if batches != 10 {
		t.Errorf("%d batches in 160 requests, want every 16th", batches)
	}
}
