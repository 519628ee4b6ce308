package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, opened by the benchmark's own code
// around the call. Spans of one request share Req; Parent is the index of
// the enclosing span, -1 for a root.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pass nil and pay one branch per call.
// It is safe for concurrent use: the open-loop generator records from
// every connection's goroutine.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span and returns its index, -1 on a nil recorder.
func (r *recorder) begin(name string, parent int, req int64) int {
	if r == nil {
		return -1
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return len(r.spans) - 1
}

// end closes span i and returns its duration.
func (r *recorder) end(i int) time.Duration {
	if r == nil || i < 0 {
		return 0
	}
	now := int64(time.Since(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return time.Duration(now - r.spans[i].Start)
}

// selfTimes returns each span's self time: its duration minus the part
// its child spans cover. Children of one span never overlap here, since
// each is opened and closed by the one goroutine serving that request.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

func (r *recorder) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// writeFile writes the spans as JSON lines.
func (r *recorder) writeFile(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
