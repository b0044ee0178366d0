package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one operation (a workload round, a request) share Op;
// Parent is the enclosing span's ID (0 for none).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// op starts a new operation id.
func (r *recorder) op() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// begin opens a span and returns its id.
func (r *recorder) begin(name, layer string, parent, op int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer, Start: now})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already-timed span (start and end on the recorder's
// clock), for intervals measured elsewhere such as a request's due time.
func (r *recorder) add(name, layer string, parent, op int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans)
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of it that child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		if s.End < s.Start {
			continue // never closed
		}
		out[s.Layer] += s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB time.Duration
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as JSON.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, r *recorder) {
	st := selfTimes(r.spans)
	layers := make([]string, 0, len(st))
	for l := range st {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	fmt.Fprintln(w, "perfbench: per-layer self time in the traced run")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-10s %10.4f s\n", l, st[l].Seconds())
	}
}

// selfTimesPerOp returns each layer's self time per operation, over the
// operations whose root span (the one without a parent) has one of the
// names in units:
// the layer's self time summed over those operations' spans, divided by
// the number of them that hold at least one span of the layer. A unit is
// a fixed amount of work (a workload round, a grid repetition, a
// request), so the figure moves with the code and not with how many
// units fit in the run.
func selfTimesPerOp(spans []span, units ...string) map[string]time.Duration {
	unit := make(map[string]bool)
	for _, u := range units {
		unit[u] = true
	}
	ops := make(map[int]bool)
	for _, s := range spans {
		if s.Parent == 0 && unit[s.Name] {
			ops[s.Op] = true
		}
	}
	var in []span
	for _, s := range spans {
		if ops[s.Op] {
			in = append(in, s)
		}
	}
	held := make(map[string]map[int]bool)
	for _, s := range in {
		if held[s.Layer] == nil {
			held[s.Layer] = make(map[int]bool)
		}
		held[s.Layer][s.Op] = true
	}
	out := selfTimes(in)
	for l := range out {
		out[l] /= time.Duration(len(held[l]))
	}
	return out
}

// setSelfTimes reports the self time per unit operation (see
// selfTimesPerOp) of every layer the operations named in units enter, as
// trace.self_s_per_op.<layer> metrics.
func setSelfTimes(o *outcome, r *recorder, units ...string) {
	for l, d := range selfTimesPerOp(r.spans, units...) {
		o.set("trace.self_s_per_op."+l, d.Seconds(), "s")
	}
}
