package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// An open-loop load generator: requests fall due on a fixed schedule
// whatever the daemon does, each is timed from when it was due, and the
// generator's own lateness is recorded apart, so a stall in the daemon
// shows as latency on every request queued behind it and a slow
// generator is never read as a slow daemon.

// reply is what one request got back.
type reply struct {
	status  int
	margins []float32
	epoch   int
	promo   uint64
}

// sendFunc sends template tmpl on connection conn.
type sendFunc func(conn, tmpl int) (reply, error)

// sample is one request's record.
type sample struct {
	tmpl int
	conn int
	// due is when the schedule said to send; released is when the
	// generator handed the request to a connection; start is when a
	// connection began sending it; done is when the reply was read.
	due, released, start, done time.Time
	reply
	err error
}

func (s *sample) latency() time.Duration { return s.done.Sub(s.due) }
func (s *sample) late() time.Duration    { return s.released.Sub(s.due) }

// offer sends count requests at rate per second over conns connections,
// template k for request k (see tmplOf), and returns every request's
// sample in due order. It returns once every request has completed. The
// next free connection takes the next request due, so one slow reply
// does not hold back requests another connection could send. A non-nil
// rec gets each request as spans sharing one operation id: the request
// from its due time (serve), with the wait for a connection (loadgen) as
// its child.
func offer(send sendFunc, rec *recorder, rate float64, count, conns int, tmplOf func(k int) int) []sample {
	out := make([]sample, count)
	// Sized to the number of sends: the queue between the schedule and
	// the connections is unbounded by design, as in an open loop.
	jobs := make(chan int, count)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := range jobs {
				s := &out[k]
				s.conn, s.start = c, time.Now()
				s.reply, s.err = send(c, s.tmpl)
				s.done = time.Now()
				if rec != nil {
					op := rec.op()
					id := rec.add("request", "serve", 0, op, s.due, s.done)
					rec.add("queued", "loadgen", id, op, s.due, s.start)
				}
			}
		}(c)
	}
	t0 := time.Now().Add(2 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for k := 0; k < count; k++ {
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out[k].tmpl, out[k].due, out[k].released = tmplOf(k), due, time.Now()
		jobs <- k
	}
	close(jobs)
	wg.Wait()
	return out
}

// template is one pre-encoded /predict body and the examples in it.
type template struct {
	body []byte
	xs   [][]float32
}

// predictTemplates builds the request mix's bodies: singles, and batches
// of eight examples, every example drawn from next.
func predictTemplates(singles, batches, n int, next func() float32) []template {
	var out []template
	ex := func() []float32 {
		x := make([]float32, n)
		for j := range x {
			x[j] = next()
		}
		return x
	}
	for i := 0; i < singles; i++ {
		x := ex()
		b, _ := json.Marshal(map[string]any{"x": x})
		out = append(out, template{body: b, xs: [][]float32{x}})
	}
	for i := 0; i < batches; i++ {
		xs := make([][]float32, 8)
		for k := range xs {
			xs[k] = ex()
		}
		b, _ := json.Marshal(map[string]any{"batch": xs})
		out = append(out, template{body: b, xs: xs})
	}
	return out
}

// mixTemplate maps request k to a template: singles, with every 16th
// request a batch of eight.
func mixTemplate(singles, batches int) func(k int) int {
	return func(k int) int {
		if k%16 == 15 {
			return singles + (k/16)%batches
		}
		return k % singles
	}
}

// httpSender posts templates to url, one keep-alive connection per conn.
func httpSender(url string, conns int, tmpls []template) sendFunc {
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return func(conn, tmpl int) (reply, error) {
		resp, err := clients[conn].Post(url, "application/json", bytes.NewReader(tmpls[tmpl].body))
		if err != nil {
			return reply{}, err
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			return reply{status: resp.StatusCode}, err
		}
		var pr struct {
			Margin     *float32  `json:"margin"`
			Margins    []float32 `json:"margins"`
			ModelEpoch int       `json:"model_epoch"`
			Promotion  uint64    `json:"promotion"`
		}
		if err := json.Unmarshal(b, &pr); err != nil {
			return reply{status: resp.StatusCode}, fmt.Errorf("decode reply: %w", err)
		}
		r := reply{status: resp.StatusCode, margins: pr.Margins, epoch: pr.ModelEpoch, promo: pr.Promotion}
		if pr.Margin != nil {
			r.margins = []float32{*pr.Margin}
		}
		return r, nil
	}
}
