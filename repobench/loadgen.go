package main

import (
	"bytes"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// httpReq is one request the generator sends: a POST of body to path.
type httpReq struct {
	path string
	body []byte
}

// outcome is one request as the client saw it. Latency is timed from due,
// the scheduled send time, so a stall delays every request queued behind
// it in the measurement too.
type outcome struct {
	due, sent, first, done time.Time
	skipped                bool // never sent: the run was aborted as overloaded; counts as failed
	status                 int
	err                    error
	body                   []byte
	header, trailer        http.Header
}

// openLoop is the result of one fixed-rate run.
type openLoop struct {
	rate    float64
	outs    []outcome
	lag     []float64 // ms the generator dispatched each request late
	backlog []int     // requests waiting for a connection at each dispatch
	start   time.Time
	// held is the rate the generator actually dispatched at: the nominal
	// rate up to timer jitter.
	held float64
}

// runOpenLoop sends n = rate·d requests on a fixed schedule over conns
// connections. The schedule does not slow when the server does: a request
// whose connection is busy waits in a queue, and that wait is part of its
// latency. If the queue grows past maxBacklog the run is aborted as
// overloaded and the requests not yet sent are skipped. traceOf, if not
// nil, names the recorder for request i (nil: untraced).
func runOpenLoop(client *http.Client, base string, rate float64, d time.Duration, conns, maxBacklog int,
	next func(i int) httpReq, traceOf func(i int) *recorder) *openLoop {
	n := max(1, int(rate*d.Seconds()))
	run := &openLoop{rate: rate, outs: make([]outcome, n), lag: make([]float64, n), backlog: make([]int, n)}
	type job struct {
		i   int
		due time.Time
		req httpReq
	}
	queue := make(chan job, n) // sized to the number of sends: the scheduler never blocks
	var abort atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if abort.Load() {
					run.outs[j.i] = outcome{due: j.due, skipped: true}
					continue
				}
				var rec *recorder
				if traceOf != nil {
					rec = traceOf(j.i)
				}
				run.outs[j.i] = send(client, base, j.req, j.due, rec, int64(j.i+1))
			}
		}()
	}
	run.start = time.Now()
	var first, last time.Time
	for i := 0; i < n; i++ {
		due := run.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		last = time.Now()
		if i == 0 {
			first = last
		}
		run.lag[i] = ms(last.Sub(due))
		run.backlog[i] = len(queue)
		if run.backlog[i] > maxBacklog {
			abort.Store(true)
		}
		queue <- job{i: i, due: due, req: next(i)}
	}
	close(queue)
	if n > 1 {
		run.held = float64(n-1) / last.Sub(first).Seconds()
	}
	wg.Wait()
	return run
}

// send posts one request and reads the whole response, stamping the
// first body byte. With a recorder, the request is a gen.request span
// with server.ttfb (send to first byte) and server.body children.
func send(client *http.Client, base string, rq httpReq, due time.Time, rec *recorder, id int64) outcome {
	o := outcome{due: due}
	root := rec.begin("gen.request", -1, id)
	defer rec.end(root)
	req, err := http.NewRequest(http.MethodPost, base+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		o.err = err
		return o
	}
	sp := rec.begin("server.ttfb", root, id)
	o.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		rec.end(sp)
		o.err = err
		o.done = time.Now()
		return o
	}
	defer resp.Body.Close()
	o.status, o.header = resp.StatusCode, resp.Header
	var body bytes.Buffer
	chunk := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(chunk)
		if n > 0 {
			if o.first.IsZero() {
				o.first = time.Now()
				rec.end(sp)
				sp = rec.begin("server.body", root, id)
			}
			body.Write(chunk[:n])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			o.err = err
			break
		}
	}
	o.done = time.Now()
	rec.end(sp)
	o.body, o.trailer = body.Bytes(), resp.Trailer
	return o
}

// growing reports whether the backlog grew over the dispatches from
// index from on: its mean over the last quarter of them exceeds that over
// the first quarter by more than 50 ms worth of requests. Short bursts
// pass; a rate the server cannot keep up with piles up its excess for the
// whole run.
func (r *openLoop) growing(from int) bool {
	backlog := r.backlog[min(from, len(r.backlog)):]
	q := len(backlog) / 4
	if q == 0 {
		return false
	}
	mean := func(xs []int) float64 {
		s := 0
		for _, x := range xs {
			s += x
		}
		return float64(s) / float64(len(xs))
	}
	return mean(backlog[len(backlog)-q:]) > mean(backlog[:q])+r.rate*0.05
}

func (r *openLoop) backlogMax() int {
	m := 0
	for _, b := range r.backlog {
		m = max(m, b)
	}
	return m
}
