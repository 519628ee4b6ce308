package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	"gcx"
)

// setupBlocks × setupBlockReps is how many times a solo run compiles its
// queries. Set-up time is the median compile, scaled by calibration loops
// timed between the blocks (calib.go): one slow compile (a GC cycle, a
// descheduling) does not move it, and neither does the host's drift.
const (
	setupBlocks    = 10
	setupBlockReps = 500
)

// soloCase is one (query, document) pair and its expected output.
type soloCase struct {
	q    int // index into the workload's queries
	doc  int
	want []byte
}

// runSolo measures a solo workload: Engine.Run in a closed loop with one
// client, every output compared with the FullBuffer strategy's.
func runSolo(rep *report, w workload, cfg runConfig) error {
	docs, err := genDocs(w, cfg.seed)
	if err != nil {
		return err
	}
	mean := meanSize(docs)
	rep.note("closed loop, 1 client, %d doc(s) of %.0f B, queries %s, latency limit %v", len(docs), mean, queryNames(w), w.limit)

	// Oracle: the FullBuffer strategy buffers the whole document and is
	// the repo's semantic reference.
	var cases []soloCase
	var outputs [][]byte
	for qi, q := range w.queries {
		full, err := gcx.Compile(q.Text, gcx.WithStrategy(gcx.FullBuffer))
		if err != nil {
			return fmt.Errorf("%s: %w", q.Name, err)
		}
		for di, doc := range docs {
			var out bytes.Buffer
			if _, err := full.Run(bytes.NewReader(doc), &out); err != nil {
				return fmt.Errorf("%s FullBuffer: %w", q.Name, err)
			}
			cases = append(cases, soloCase{q: qi, doc: di, want: out.Bytes()})
			outputs = append(outputs, out.Bytes())
		}
	}
	if err := checkDigest(rep, w.name, cfg.seed, outputs); err != nil {
		return err
	}

	// Set-up is compiling the workload's queries. The oracle's garbage is
	// collected first, so no collection it left pending runs into it.
	runtime.GC()
	var engines []*gcx.Engine
	var setups []float64
	setupCal := []float64{calibrate()}
	for b := 0; b < setupBlocks; b++ {
		for i := 0; i < setupBlockReps; i++ {
			t0 := time.Now()
			engines = engines[:0]
			for _, q := range w.queries {
				e, err := gcx.Compile(q.Text)
				if err != nil {
					return fmt.Errorf("%s: %w", q.Name, err)
				}
				engines = append(engines, e)
			}
			setups = append(setups, time.Since(t0).Seconds())
		}
		setupCal = append(setupCal, calibrate())
	}

	if cfg.trace {
		return tracedSolo(rep, w, cfg, docs, cases)
	}
	res, err := closedLoop(engines, docs, cases, cfg.budget(1), w.limit)
	if err != nil {
		return err
	}
	res.count(rep)
	// Throughput and rate come from the median round, so a burst of
	// interference moves them no more than it moves the median latency.
	// Times are scaled to the reference speed (see calib.go).
	mb := float64(res.bytes) / 1e6
	rounds, ttfrs := res.scaled()
	lat := summarize(rounds, ms(res.elapsed))
	ttfr := summarize(ttfrs, ms(res.elapsed))
	rep.set("setup_s", median(setups)*speed(setupCal))
	rep.set("throughput_mb_s", float64(res.roundBytes)/1e6/(lat.p50/1e3))
	rep.set("latency_p50_ms", lat.p50)
	rep.set("latency_tail_ms", lat.tail)
	rep.set("ttfr_p50_ms", ttfr.p50)
	rep.set("ttfr_tail_ms", ttfr.tail)
	rep.set("peak_buffer_bytes", float64(res.peak))
	rep.set("alloc_bytes_per_mb", float64(res.allocBytes)/mb)
	rep.set("max_rate_rps", 1e3/lat.p50)
	rep.note("calibration loop median %.4g ms over %d samples (reference %g ms); scaled latency_ms %s; scaled ttfr_ms %s; raw figures below",
		median(res.cal), len(res.cal), calRefMs, lat, ttfr)
	rep.note("setup_s raw %.4g (median of %d compiles of the queries; calibration loop median %.4g ms around them)", median(setups), len(setups), median(setupCal))
	rep.note("input %d B per round, %.1f MB evaluated in %v (%.4g MB/s overall)", res.roundBytes, mb, res.elapsed.Round(time.Millisecond), mb/res.elapsed.Seconds())
	rep.note("latency_ms per document (one round of the queries) %s; %d over the %v limit",
		summarize(res.rounds, ms(res.elapsed)), res.overLimit, w.limit)
	rep.note("ttfr_ms per run %s", summarize(res.ttfr, ms(res.elapsed)))
	for qi, q := range w.queries {
		rep.note("%s latency_ms p50 %.4g (n=%d)", q.Name, median(res.perQuery[qi]), len(res.perQuery[qi]))
	}
	rep.note("max_rate_rps is the closed loop's rate: documents per second one client waiting for each reply sustains")
	return nil
}

func queryNames(w workload) string {
	s := ""
	for i, q := range w.queries {
		if i > 0 {
			s += ","
		}
		s += q.Name
	}
	return s
}

// loopResult is what a closed loop measured.
type loopResult struct {
	rounds     []float64   // ms per round: every case once, in order
	cal        []float64   // ms per calibration loop: one before the first round, one after each
	ttfrRound  []int       // the round each ttfr sample belongs to
	ttfr       []float64   // ms per run with output
	perQuery   [][]float64 // ms per run, by query index
	roundBytes int64
	bytes      int64
	elapsed    time.Duration
	allocBytes uint64
	peak       int64
	attempted  int
	failed     int
	mismatches int
	overLimit  int
}

// scaled returns the rounds and ttfr samples scaled to the reference
// speed, each by the calibration loops just before and after its round
// (see calib.go).
func (r *loopResult) scaled() (rounds, ttfr []float64) {
	factor := func(i int) float64 { return speed([]float64{r.cal[i], r.cal[i+1]}) }
	rounds = make([]float64, len(r.rounds))
	for i, v := range r.rounds {
		rounds[i] = v * factor(i)
	}
	ttfr = make([]float64, len(r.ttfr))
	for i, v := range r.ttfr {
		ttfr[i] = v * factor(r.ttfrRound[i])
	}
	return rounds, ttfr
}

// count adds the runs to the report. A run must not fail: the oracle
// completed it.
func (r *loopResult) count(rep *report) {
	rep.attempted += r.attempted
	rep.failed += r.failed
	rep.unexpected += r.failed
	rep.mismatches += r.mismatches
}

// closedLoop runs rounds of the cases, one run at a time, for d. A round
// evaluates each document with each of the workload's queries; its time
// is the time per document a client evaluating the workload sees. Each
// run is checked byte for byte; a round with a failed run is +Inf.
func closedLoop(engines []*gcx.Engine, docs [][]byte, cases []soloCase, d, limit time.Duration) (*loopResult, error) {
	res := &loopResult{perQuery: make([][]float64, len(engines))}
	for _, c := range cases {
		res.roundBytes += int64(len(docs[c.doc]))
	}
	var sink checkSink
	var r bytes.Reader
	// Warm-up fills each engine's run-state pool; checked, not timed.
	for _, c := range cases {
		sink.reset(c.want)
		r.Reset(docs[c.doc])
		if _, err := engines[c.q].Run(&r, &sink); err != nil {
			return nil, fmt.Errorf("warm-up run: %w", err)
		}
		if !sink.ok() {
			res.mismatches++
		}
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	res.cal = append(res.cal, calibrate())
	start := time.Now()
	for time.Since(start) < d {
		round := time.Duration(0)
		for _, c := range cases {
			sink.reset(c.want)
			r.Reset(docs[c.doc])
			t0 := time.Now()
			st, err := engines[c.q].Run(&r, &sink)
			lat := time.Since(t0)
			res.attempted++
			res.bytes += int64(len(docs[c.doc]))
			round += lat
			if err != nil {
				res.failed++
				round = time.Duration(math.MaxInt64)
				continue
			}
			if !sink.ok() {
				res.mismatches++
			}
			res.perQuery[c.q] = append(res.perQuery[c.q], ms(lat))
			if !sink.first.IsZero() {
				res.ttfr = append(res.ttfr, ms(sink.first.Sub(t0)))
				res.ttfrRound = append(res.ttfrRound, len(res.rounds))
			}
			res.peak = max(res.peak, st.PeakBufferBytes)
		}
		res.cal = append(res.cal, calibrate())
		if round == time.Duration(math.MaxInt64) {
			res.rounds = append(res.rounds, math.Inf(1))
		} else {
			res.rounds = append(res.rounds, ms(round))
		}
		if round > limit {
			res.overLimit++
		}
	}
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&m1)
	res.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	return res, nil
}

// tracedSolo is the solo workload's layer ledger: traced cut-point passes
// over the workload's cases, compiles, and an in-process registry over the
// same queries.
func tracedSolo(rep *report, w workload, cfg runConfig, docs [][]byte, cases []soloCase) error {
	end := time.Now().Add(cfg.budget(1))
	rec := newRecorder()
	wantOf := map[string][][]byte{}
	lqs := make([]*ledgerQuery, len(w.queries))
	for qi, q := range w.queries {
		wants := make([][]byte, len(docs))
		for _, c := range cases {
			if c.q == qi {
				wants[c.doc] = c.want
			}
		}
		wantOf[q.Text] = wants
		lq, err := newLedgerQuery(q, wants)
		if err != nil {
			return err
		}
		lqs[qi] = lq
	}
	texts := make([]string, len(w.queries))
	ids := make([]string, len(w.queries))
	for i, q := range w.queries {
		texts[i], ids[i] = q.Text, q.Name
	}
	compileMs, err := compileLayer(rec, texts)
	if err != nil {
		return err
	}
	reg, err := registryLayer(rec, ids, texts, docs, func(text string, doc int) ([]byte, error) {
		return wantOf[text][doc], nil
	}, cfg.budget(0.3))
	if err != nil {
		return err
	}
	reg.count(rep)
	// The ledger takes the rest of the run.
	led, err := runLedger(rec, lqs, docs, time.Until(end))
	if err != nil {
		return err
	}
	led.count(rep)

	setLedgerMetrics(rep, led, rec)
	rep.set("static.compile_ms_per_query", compileMs)
	reg.set(rep)

	for _, m := range []string{"server.transport_ms_p50", "server.transport_ms_tail", "server.ttfb_ms", "server.reload_ms",
		"server.cache_hit_ratio", "server.errors_4xx", "server.errors_5xx", "gen.lag_ms", "gen.backlog_max"} {
		rep.set(m, 0)
	}
	return dumpSpans(rep, rec, w, cfg)
}

func dumpSpans(rep *report, rec *recorder, w workload, cfg runConfig) error {
	rep.set("trace.spans", float64(rec.len()))
	path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := rec.writeFile(path); err != nil {
		return err
	}
	rep.note("%d spans written to %s", rec.len(), path)
	return nil
}
