package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gcx"
	"gcx/internal/server"
)

// localServer is the in-process stand-in for gcxd: the same handler gcxd
// serves, so the fleet workload's client, checks and metrics run without
// building and starting the binary.
type localServer struct {
	ts  *httptest.Server
	srv *server.Server
	// loseReloads confirms each reload without installing it, as a server
	// that logs a reload but keeps serving the old registry would.
	loseReloads bool
}

func (l *localServer) url() string { return l.ts.URL }

func (l *localServer) reload(registry []byte) (time.Duration, error) {
	t0 := time.Now()
	reg, err := server.ParseRegistry("fleet", bytes.NewReader(registry))
	if err != nil || l.loseReloads {
		return time.Since(t0), err
	}
	return time.Since(t0), l.srv.ReloadRegistry(reg)
}

func (l *localServer) stop() error {
	l.ts.Close()
	return nil
}

// inProcess launches localServers; wrap, if not nil, wraps the handler.
func inProcess(wrap func(http.Handler) http.Handler) launcher {
	return launchLocal(wrap, false)
}

func launchLocal(wrap func(http.Handler) http.Handler, loseReloads bool) launcher {
	return func(registry []byte) (fleetServer, time.Duration, error) {
		t0 := time.Now()
		reg, err := server.ParseRegistry("fleet", bytes.NewReader(registry))
		if err != nil {
			return nil, 0, err
		}
		srv, err := server.New(server.Config{Registry: reg, Cache: gcx.NewCompileCache(0), EnablePprof: true})
		if err != nil {
			return nil, 0, err
		}
		h := http.Handler(srv)
		if wrap != nil {
			h = wrap(h)
		}
		return &localServer{ts: httptest.NewServer(h), srv: srv, loseReloads: loseReloads}, time.Since(t0), nil
	}
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricTableMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range b.Workloads {
		wl = append(wl, w.Name)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if strings.Join(wl, ",") != strings.Join(names, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, benchmark %v", wl, names)
	}
	same := func(kind string, declared []metric, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(declared) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, benchmark %d", kind, len(got), len(declared))
			return
		}
		for i, m := range declared {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s [%s], benchmark %s [%s]", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", endToEndMetrics, b.EndToEnd)
	same("per_layer", perLayerMetrics, b.PerLayer)
}

// lastLine returns the result line a run printed.
func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v\n%s", err, out)
	}
	return res
}

func TestEveryMetricReportedWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{seed: 1, seconds: 0.5, trace: traced, work: t.TempDir()}
			rep := newReport()
			var err error
			if w.fleet {
				err = runFleet(rep, w, cfg, inProcess(nil))
			} else {
				err = runSolo(rep, w, cfg)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			if err := rep.write(&out, traced); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			res := lastLine(t, out.String())
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				if v, ok := res.Metrics[m.name]; !ok || v.Unit != m.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w.name, traced, m.name, v, m.unit)
				}
			}
			// The checks are printed on every run, with their units.
			for _, m := range checkMetrics {
				if !strings.Contains(out.String(), m.name) || !strings.Contains(out.String(), " "+m.unit+"\n") {
					t.Errorf("%s traced=%v: %s [%s] not printed", w.name, traced, m.name, m.unit)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
		}
	}
}

func TestCorruptedOutputIsAMismatch(t *testing.T) {
	// Solo: the checking sink rejects a flipped byte.
	var s checkSink
	s.reset([]byte("<q1><name>x</name></q1>"))
	s.Write([]byte("<q1><name>y</name></q1>"))
	if s.ok() {
		t.Error("checkSink accepted a corrupted output")
	}

	// gcxd-fleet: one /query response has a byte flipped in transit.
	var n atomic.Int64
	corrupt := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/query" && r.URL.Query().Get("id") != "" && n.Add(1) == 3 {
				w = &flipWriter{ResponseWriter: w}
			}
			h.ServeHTTP(w, r)
		})
	}
	w := workloads[2]
	rep := newReport()
	if err := runFleet(rep, w, runConfig{seed: 1, seconds: 0.5, work: t.TempDir()}, inProcess(corrupt)); err != nil {
		t.Fatal(err)
	}
	if rep.mismatches == 0 {
		t.Fatal("a corrupted gcxd response did not count in output_mismatches")
	}
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	if res := lastLine(t, out.String()); res.Correct {
		t.Error("result line says correct with a mismatch")
	}
	if rep.values["output_mismatches"] == 0 {
		t.Error("output_mismatches printed as 0")
	}
}

func TestLostReloadIsAMismatch(t *testing.T) {
	rep := newReport()
	if err := runFleet(rep, workloads[2], runConfig{seed: 1, seconds: 1, work: t.TempDir()}, launchLocal(nil, true)); err != nil {
		t.Fatal(err)
	}
	if rep.mismatches == 0 {
		t.Fatal("a server that lost its reloads passed every /workload check")
	}
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	if res := lastLine(t, out.String()); res.Correct {
		t.Error("result line says correct with lost reloads")
	}
}

func TestServableTexts(t *testing.T) {
	f := newFleet([][]byte{[]byte("<site/>")})
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	boot := f.versions[0].text
	f.versions = append(f.versions,
		version{text: "r1", begun: at(100), confirmed: at(110)},
		version{text: "r2", begun: at(200), confirmed: at(210)})
	for _, c := range []struct {
		sent, done int
		want       string
	}{
		{0, 50, boot},          // before any reload
		{0, 105, boot + ",r1"}, // r1 began while in flight
		{50, 150, boot + ",r1"},
		{120, 150, "r1"},    // r1 was confirmed before the send
		{120, 205, "r1,r2"}, // r2 began while in flight
		{215, 300, "r2"},    // only the last text
		{105, 300, boot + ",r1,r2"},
	} {
		if got := strings.Join(f.servable(at(c.sent), at(c.done)), ","); got != c.want {
			t.Errorf("servable(%d, %d) = %s, want %s", c.sent, c.done, got, c.want)
		}
	}
}

// flipWriter flips the first byte the handler writes.
type flipWriter struct {
	http.ResponseWriter
	done bool
}

func (f *flipWriter) Write(p []byte) (int, error) {
	if !f.done && len(p) > 0 {
		f.done = true
		q := append([]byte(nil), p...)
		q[0] ^= 0x20
		return f.ResponseWriter.Write(q)
	}
	return f.ResponseWriter.Write(p)
}

func (f *flipWriter) Flush() { http.NewResponseController(f.ResponseWriter).Flush() }

func (f *flipWriter) Unwrap() http.ResponseWriter { return f.ResponseWriter }

func TestStalledServerRaisesOpenLoopLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	var n atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 5 {
			time.Sleep(stall)
		}
		w.Write([]byte("ok"))
	}))
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	run := runOpenLoop(client, ts.URL, 50, time.Second, 1, 1000, func(int) httpReq {
		return httpReq{path: "/", body: []byte("<a/>")}
	}, nil)

	// Timed from the schedule, the requests due during the stall all wait
	// for it; timed from their actual send, only the stalled one is slow.
	slowFromDue, slowFromSend := 0, 0
	for _, o := range run.outs {
		if o.err != nil {
			t.Fatal(o.err)
		}
		if o.done.Sub(o.due) > stall/3 {
			slowFromDue++
		}
		if o.done.Sub(o.sent) > stall/3 {
			slowFromSend++
		}
	}
	if slowFromDue < 5 {
		t.Errorf("%d requests slow from their scheduled time, want ≥5 after a %v stall", slowFromDue, stall)
	}
	if slowFromSend > 2 {
		t.Errorf("%d requests slow from their send time, want ≤2", slowFromSend)
	}
	if run.backlogMax() < 5 {
		t.Errorf("backlog max %d, want the stall to queue ≥5 requests", run.backlogMax())
	}
}

func TestFailedRequestCountsInErrorRate(t *testing.T) {
	var mu sync.Mutex
	seen := 0
	fail := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen++
			refuse := r.URL.Path == "/query" && seen%4 == 0
			mu.Unlock()
			if refuse {
				http.Error(w, "refused", http.StatusServiceUnavailable)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	rep := newReport()
	if err := runFleet(rep, workloads[2], runConfig{seed: 1, seconds: 0.5, work: t.TempDir()}, inProcess(fail)); err != nil {
		t.Fatal(err)
	}
	if rep.failed == 0 || rep.errorRate() <= 0 {
		t.Fatalf("failed=%d error_rate=%v, want refused requests counted", rep.failed, rep.errorRate())
	}
	if rep.mismatches != 0 {
		t.Errorf("refused requests counted as %d mismatches", rep.mismatches)
	}
	var out bytes.Buffer
	if err := rep.write(&out, false); err != nil {
		t.Fatal(err)
	}
	res := lastLine(t, out.String())
	if res.Failed != rep.failed {
		t.Errorf("result line failed=%d, want %d", res.Failed, rep.failed)
	}
	// No request may fail at the fixed rate.
	if res.Correct {
		t.Error("result line says correct with failed fixed-rate requests")
	}

	// A failure misses the latency limit: enough of them put the tail at
	// the ceiling, however fast the other requests were.
	lat := make([]float64, 100)
	for i := range lat {
		lat[i] = 1
	}
	for i := 0; i < 15; i++ {
		lat = append(lat, math.Inf(1))
	}
	if d := summarize(lat, 5000); d.tail != 5000 {
		t.Errorf("tail with 15 failures in 115 = %v, want the 5000 ms ceiling", d.tail)
	}
}

func TestFailedSoloRunIsNotCorrect(t *testing.T) {
	rep := newReport()
	res := &loopResult{attempted: 10, failed: 1}
	res.count(rep)
	if rep.correct() {
		t.Error("a failed solo run left the run correct")
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 100}, {19, 100}, {20, 50}, {40, 75}, {99, 75}, {100, 90}, {200, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
