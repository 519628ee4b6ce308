package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"mime"
	"mime/multipart"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"gcx"
	"gcx/internal/queries"
)

// The gcxd-fleet traffic mix, per ten scheduled requests:
//
//	1  POST /workload        the whole boot-time fleet over one document
//	8  POST /query?id=       a Table 1 query of the fleet (sub-0000..sub-0004)
//	1  POST /query?q=        an inline text never sent before: a compile-cache miss
//
// Beside the requests, every reloadEvery the registry file changes one
// subscription's text and gcxd gets SIGHUP.
const (
	fleetSubs   = 1024 // subscriptions in the boot-time registry
	fleetTexts  = 64   // distinct texts among them
	fleetConns  = 2    // generator connections: nproc of the reference host
	fleetRate   = 40.0 // req/s of the fixed-rate phase: about a seventh of the knee max_rate_rps finds
	fleetSetups = 31   // gcxd starts per untraced run; setup_s is their median
	reloadEvery = time.Second
)

// fleetLadder is the fixed ladder of rates, req/s, that max_rate_rps is
// read from, in steps of 8%. It spans the knee found on the reference
// host (the 269 to 395 req/s rungs) with room on both sides. A run probes
// ladderProbes() rungs of it by bisection, which reaches any rung in five
// probes, each long enough to judge a p95 on at least 300 requests.
var fleetLadder = []float64{157, 170, 183, 198, 214, 231, 249, 269, 291, 314, 339, 366, 395, 427, 461, 498}

// ladderTailP is the percentile every rung's latency is judged on. With
// one request in ten a slow full-fleet /workload, p90 would sit on the
// edge between the fast and the slow requests; p95 sits inside the slow
// ones on every rung.
const ladderTailP = 95

// ladderProbes is the number of rungs bisection probes: enough to narrow
// the whole ladder to one rung.
func ladderProbes() int { return bits.Len(uint(len(fleetLadder))) }

// fleet is the gcxd-fleet workload's inputs and its oracle.
type fleet struct {
	docs    [][]byte
	ids     []string
	boot    []string // each id's text in the boot-time registry
	mutable int      // index of the subscription reloads change

	mu       sync.Mutex
	versions []version // every text the mutable subscription has had, in order
	inline   int       // inline texts issued so far

	oracle map[string][][]byte // text → document → solo Engine.Run output
}

// fleetText is the subs template of the registry benchmark: a Table 1
// query wrapped in a per-index element, so texts and outputs differ while
// projection spines are shared.
func fleetText(tag string, i int) string {
	t := queries.All()[i%len(queries.All())]
	return fmt.Sprintf("<%s%d>{ %s }</%s%d>", tag, i, strings.TrimSpace(t.Text), tag, i)
}

func newFleet(docs [][]byte) *fleet {
	f := &fleet{docs: docs, mutable: fleetSubs - 1, oracle: map[string][][]byte{}}
	for i := 0; i < fleetSubs; i++ {
		f.ids = append(f.ids, fmt.Sprintf("sub-%04d", i))
		f.boot = append(f.boot, fleetText("v", i%fleetTexts))
	}
	f.versions = []version{{text: f.boot[f.mutable]}}
	return f
}

// version is one text of the mutable subscription: when its reload began
// (before the registry file was rewritten) and when gcxd confirmed it.
// The boot text has zero times.
type version struct {
	text             string
	begun, confirmed time.Time
}

// servable returns the texts the mutable subscription may have been
// served under by a request sent at sent and completed at done: the text
// installed when it was sent, and any whose reload began before it
// completed. A text whose successor was confirmed before the request was
// sent is out, so a reload the server lost shows as a mismatch.
func (f *fleet) servable(sent, done time.Time) []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var texts []string
	for k, v := range f.versions {
		if !v.begun.Before(done) {
			break
		}
		if k+1 < len(f.versions) && !f.versions[k+1].confirmed.IsZero() && !f.versions[k+1].confirmed.After(sent) {
			continue
		}
		texts = append(texts, v.text)
	}
	return texts
}

// registry renders the registry file with the mutable subscription set
// to text.
func (f *fleet) registry(text string) []byte {
	var b bytes.Buffer
	for i, id := range f.ids {
		q := f.boot[i]
		if i == f.mutable {
			q = text
		}
		fmt.Fprintf(&b, "=== %s\n%s\n", id, q)
	}
	return b.Bytes()
}

// want returns the solo Engine.Run output of text over document doc.
func (f *fleet) want(text string, doc int) ([]byte, error) {
	outs, ok := f.oracle[text]
	if !ok {
		eng, err := gcx.Compile(text)
		if err != nil {
			return nil, err
		}
		outs = make([][]byte, len(f.docs))
		for i, d := range f.docs {
			var b bytes.Buffer
			if _, err := eng.Run(bytes.NewReader(d), &b); err != nil {
				return nil, fmt.Errorf("solo oracle: %w", err)
			}
			outs[i] = b.Bytes()
		}
		f.oracle[text] = outs
	}
	return outs[doc], nil
}

// fleetReq is what the generator sends for slot i of the schedule.
type fleetReq struct {
	kind string // workload | query | inline
	doc  int
	id   string // the subscription, for query
	text string // the query text, for query and inline
}

func (f *fleet) plan(i int) fleetReq {
	doc := i % len(f.docs)
	switch i % 10 {
	case 0:
		return fleetReq{kind: "workload", doc: doc}
	case 9:
		f.mu.Lock()
		f.inline++
		n := f.inline
		f.mu.Unlock()
		return fleetReq{kind: "inline", doc: doc, text: fleetText("n", n)}
	default:
		k := (i/10*8 + i%10 - 1) % len(queries.All())
		return fleetReq{kind: "query", doc: doc, text: f.boot[k], id: f.ids[k]}
	}
}

func (r fleetReq) path() string {
	switch r.kind {
	case "workload":
		return "/workload"
	case "inline":
		return "/query?q=" + url.QueryEscape(r.text)
	default:
		return "/query?id=" + r.id
	}
}

// reloads changes the mutable subscription every reloadEvery until stop
// is closed, returning each reload's confirmation time in ms. The first
// reload falls 5.5 slots after start: midway between two /workload sends
// and half a slot off any send, so at the fixed rate each reload is paid
// for by the same /workload request of its second, never raced by one.
func (f *fleet) reloads(srv fleetServer, start time.Time, rate float64, stop <-chan struct{}) ([]float64, error) {
	next := start.Add(time.Duration(5.5 / rate * float64(time.Second)))
	var durs []float64
	for {
		t := time.NewTimer(time.Until(next))
		select {
		case <-stop:
			t.Stop()
			return durs, nil
		case <-t.C:
		}
		next = next.Add(reloadEvery)
		f.mu.Lock()
		k := len(f.versions)
		text := fleetText("r", k)
		f.versions = append(f.versions, version{text: text, begun: time.Now()})
		f.mu.Unlock()
		d, err := srv.reload(f.registry(text))
		if err != nil {
			return durs, fmt.Errorf("reload: %w", err)
		}
		f.mu.Lock()
		f.versions[k].confirmed = time.Now()
		f.mu.Unlock()
		durs = append(durs, ms(d))
	}
}

// phase is one open-loop run with its requests and verdicts.
type phase struct {
	loop    *openLoop
	reqs    []fleetReq
	reloads []float64
	cal     []float64 // calibration loop timings in ms, if calibrated

	results                       []reqResult // by schedule slot
	attempted, failed, mismatches int
	errors4xx, errors5xx          int
	peak                          int64
	bytesIn                       int64 // request bodies of successful requests
	ok                            int   // successful requests
}

// reqResult is one request's verdict and timings in ms. Latency and time
// to first result count from the scheduled send, ttfb and transport from
// the actual one.
type reqResult struct {
	sent, ok, output           bool
	lat, ttfr, ttfb, transport float64
}

// values collects a timing over the requests pick accepts: latency over
// every sent request (a failed one is +Inf), the others over successful
// requests, time to first result over those with output.
func (ph *phase) values(timing string, pick func(i int) bool) []float64 {
	var xs []float64
	for i, r := range ph.results {
		if !r.sent || (pick != nil && !pick(i)) {
			continue
		}
		switch {
		case timing == "lat":
			xs = append(xs, r.lat)
		case !r.ok:
		case timing == "transport":
			xs = append(xs, r.transport)
		case !r.output:
		case timing == "ttfr":
			xs = append(xs, r.ttfr)
		case timing == "ttfb":
			xs = append(xs, r.ttfb)
		}
	}
	return xs
}

// scaled is values scaled to the reference host's speed by the median of
// the phase's calibration loops. One factor for the whole phase keeps the
// shape of the distribution and corrects its level: the host's speed
// drifts over minutes, and one timing of the loop is too noisy to scale a
// single request by.
func (ph *phase) scaled(timing string, pick func(i int) bool) []float64 {
	xs := ph.values(timing, pick)
	f := speed(ph.cal)
	for i := range xs {
		xs[i] *= f
	}
	return xs
}

// runPhase sends the mix at rate for d, reloading beside it, then checks
// every response against the oracle. If calibrated, it also times the
// calibration loop in the schedule's quiet slots, for phase.scaled.
func (f *fleet) runPhase(client *http.Client, srv fleetServer, rate float64, d time.Duration, calibrated bool, traceOf func(i int) *recorder) (*phase, error) {
	ph := &phase{reqs: make([]fleetReq, max(1, int(rate*d.Seconds())))}
	// Each phase starts with the benchmark's own heap collected, so no
	// collection of the last phase's responses runs into it.
	runtime.GC()
	stop := make(chan struct{})
	var reloadErr error
	var wg sync.WaitGroup
	wg.Add(1)
	start := time.Now()
	go func() {
		defer wg.Done()
		ph.reloads, reloadErr = f.reloads(srv, start, rate, stop)
	}()
	if calibrated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.cal = sampleSpeed(start, rate, stop)
		}()
	}
	// A rung that queues a second's worth of requests cannot meet any limit
	// the workloads use; aborting it saves the rest of its time and
	// changes no verdict, as the requests it skips count as failed.
	maxBacklog := int(rate) + fleetConns
	ph.loop = runOpenLoop(client, srv.url(), rate, d, fleetConns, maxBacklog, func(i int) httpReq {
		r := f.plan(i)
		ph.reqs[i] = r
		return httpReq{path: r.path(), body: f.docs[r.doc]}
	}, traceOf)
	close(stop)
	wg.Wait()
	if reloadErr != nil {
		return nil, reloadErr
	}
	if calibrated && len(ph.cal) == 0 { // a phase shorter than one quiet slot
		ph.cal = []float64{calibrate()}
	}
	return ph, f.verify(ph)
}

// verify checks each response: status, error trailers, and the result
// bytes against the solo output of the same text. A failed request is
// +Inf latency, so it misses any limit.
func (f *fleet) verify(ph *phase) error {
	ph.results = make([]reqResult, len(ph.loop.outs))
	for i, o := range ph.loop.outs {
		ph.loop.outs[i].body = nil // checked here, then released
		ph.attempted++
		res := &ph.results[i]
		res.sent = true
		if o.skipped {
			ph.failed++
			res.lat = math.Inf(1)
			continue
		}
		r := ph.reqs[i]
		failed := o.err != nil || o.status != http.StatusOK || o.trailer.Get("Gcx-Error") != ""
		switch {
		case o.status >= 500:
			ph.errors5xx++
		case o.status >= 400:
			ph.errors4xx++
		}
		var st gcx.Stats
		if !failed {
			var good bool
			var err error
			if r.kind == "workload" {
				good, st, err = f.checkWorkload(o, r.doc)
			} else {
				good, st, err = f.checkQuery(o, r)
			}
			if err != nil {
				failed = true
			} else if !good {
				ph.mismatches++
			}
		}
		if failed {
			ph.failed++
			res.lat = math.Inf(1)
			continue
		}
		ph.ok++
		ph.bytesIn += int64(len(f.docs[r.doc]))
		ph.peak = max(ph.peak, st.PeakBufferBytes)
		res.ok = true
		res.lat = ms(o.done.Sub(o.due))
		res.transport = ms(o.done.Sub(o.sent)) - float64(st.EvalWallNanos)/1e6
		if len(o.body) > 0 {
			res.output = true
			res.ttfr = ms(o.first.Sub(o.due))
			res.ttfb = ms(o.first.Sub(o.sent))
		}
	}
	return nil
}

// checkQuery compares a /query response with the solo output and reads
// its Gcx-Stats trailer.
func (f *fleet) checkQuery(o outcome, r fleetReq) (bool, gcx.Stats, error) {
	var st gcx.Stats
	if err := json.Unmarshal([]byte(o.trailer.Get("Gcx-Stats")), &st); err != nil {
		return false, st, fmt.Errorf("Gcx-Stats trailer: %w", err)
	}
	want, err := f.want(r.text, r.doc)
	if err != nil {
		return false, st, err
	}
	return bytes.Equal(o.body, want), st, nil
}

// checkWorkload parses a full-fleet /workload multipart response: one
// part per subscription, then the stats part. The mutable subscription
// must match a text servable while the request was in flight.
func (f *fleet) checkWorkload(o outcome, doc int) (bool, gcx.Stats, error) {
	var st gcx.Stats
	_, params, err := mime.ParseMediaType(o.header.Get("Content-Type"))
	if err != nil {
		return false, st, err
	}
	textOf := make(map[string]string, len(f.ids))
	for i, id := range f.ids {
		textOf[id] = f.boot[i]
	}
	servable := f.servable(o.sent, o.done)
	mr := multipart.NewReader(bytes.NewReader(o.body), params["boundary"])
	seen, good := 0, true
	for {
		p, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return false, st, err
		}
		body, err := io.ReadAll(p)
		if err != nil {
			return false, st, err
		}
		if p.Header.Get("Gcx-Part") == "stats" {
			if e := p.Header.Get("Gcx-Error"); e != "" {
				return false, st, fmt.Errorf("workload: %s", e)
			}
			var resp struct {
				Stats gcx.RegistryStats `json:"stats"`
			}
			if err := json.Unmarshal(body, &resp); err != nil {
				return false, st, fmt.Errorf("stats part: %w", err)
			}
			st = resp.Stats.Aggregate
			continue
		}
		id := p.Header.Get("Gcx-Query-Id")
		texts := []string{textOf[id]}
		if id == f.ids[f.mutable] {
			texts = servable
		}
		match := false
		for _, t := range texts {
			want, err := f.want(t, doc)
			if err != nil {
				return false, st, err
			}
			match = match || bytes.Equal(body, want)
		}
		good = good && match
		seen++
	}
	return good && seen == len(f.ids), st, nil
}

// serverAlloc reads the server process's cumulative heap allocation from
// the pprof allocs profile's memory statistics.
func serverAlloc(base string) (uint64, error) {
	resp, err := http.Get(base + "/debug/pprof/allocs?debug=1")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# TotalAlloc = "); ok {
			return strconv.ParseUint(strings.TrimSpace(v), 10, 64)
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no TotalAlloc in the allocs profile (status %d)", resp.StatusCode)
}

// cacheStats reads the compile cache counters from /metrics.
func cacheStats(base string) (gcx.CacheStats, error) {
	var m struct {
		Cache gcx.CacheStats `json:"cache"`
	}
	resp, err := http.Get(base + "/metrics?format=json")
	if err != nil {
		return m.Cache, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m.Cache, err
}

// count adds the phase's requests to the report. At the fixed rate no
// request may fail; on the ladder, failures mark the server's limit.
func (ph *phase) count(rep *report, mustPass bool) {
	rep.attempted += ph.attempted
	rep.failed += ph.failed
	rep.mismatches += ph.mismatches
	if mustPass {
		rep.unexpected += ph.failed
	}
}

// runFleet measures gcxd-fleet: set-up, a fixed-rate phase, and the rate
// ladder; traced, it runs the layer ledger instead.
func runFleet(rep *report, w workload, cfg runConfig, launch launcher) error {
	docs, err := genDocs(w, cfg.seed)
	if err != nil {
		return err
	}
	mean := meanSize(docs)
	f := newFleet(docs)
	rep.note("open loop over %d connections, %d docs of %.0f B, %d subscriptions of %d texts, fixed rate %g req/s, latency limit %v, reload every %v",
		fleetConns, len(docs), mean, fleetSubs, fleetTexts, fleetRate, w.limit, reloadEvery)

	// The oracle digest covers every distinct fleet text over every doc.
	var outputs [][]byte
	for i := 0; i < fleetTexts; i++ {
		for d := range docs {
			o, err := f.want(fleetText("v", i), d)
			if err != nil {
				return err
			}
			outputs = append(outputs, o)
		}
	}
	if err := checkDigest(rep, w.name, cfg.seed, outputs); err != nil {
		return err
	}

	setups := 1
	if !cfg.trace {
		setups = fleetSetups
	}
	var srv fleetServer
	var times []float64
	cal := []float64{calibrate()}
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return fmt.Errorf("stop: %w", err)
			}
		}
		s, d, err := launch(f.registry(f.boot[f.mutable]))
		if err != nil {
			return err
		}
		srv = s
		times = append(times, d.Seconds())
		cal = append(cal, calibrate())
	}
	defer srv.stop()
	rep.set("setup_s", median(times)*speed(cal))
	rep.note("setup_s raw %.4g: median of %d gcxd starts up to a 200 from /readyz, scaled by the calibration loops between them (median %.4g ms)",
		median(times), len(times), median(cal))

	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     fleetConns,
		MaxIdleConnsPerHost: fleetConns,
		DisableCompression:  true,
	}}
	defer client.CloseIdleConnections()

	if cfg.trace {
		if err := tracedFleet(rep, w, cfg, f, srv, client); err != nil {
			return err
		}
	} else if err := untracedFleet(rep, w, cfg, f, srv, client); err != nil {
		return err
	}
	return srv.stop()
}

func untracedFleet(rep *report, w workload, cfg runConfig, f *fleet, srv fleetServer, client *http.Client) error {
	a0, err := serverAlloc(srv.url())
	if err != nil {
		return err
	}
	ph, err := f.runPhase(client, srv, fleetRate, cfg.budget(0.6), true, nil)
	if err != nil {
		return err
	}
	a1, err := serverAlloc(srv.url())
	if err != nil {
		return err
	}
	ph.count(rep, true)
	ceiling := cfg.seconds * 1000
	lat := summarize(ph.scaled("lat", nil), ceiling)
	ttfr := summarize(ph.scaled("ttfr", nil), ceiling)
	rep.set("peak_buffer_bytes", float64(ph.peak))
	rep.set("alloc_bytes_per_mb", float64(a1-a0)/(float64(ph.bytesIn)/1e6))
	rep.note("fixed rate %g req/s: calibration loop median %.4g ms over %d samples (reference %g ms)", fleetRate, median(ph.cal), len(ph.cal), calRefMs)
	rep.note("fixed rate %g req/s: scaled latency_ms %s; raw %s", fleetRate, lat, summarize(ph.values("lat", nil), ceiling))
	rep.note("fixed rate %g req/s: scaled ttfr_ms %s; raw %s", fleetRate, ttfr, summarize(ph.values("ttfr", nil), ceiling))
	for _, kind := range []string{"workload", "query", "inline"} {
		pick := func(i int) bool { return ph.reqs[i].kind == kind }
		xs, ts := ph.scaled("lat", pick), ph.scaled("ttfr", pick)
		rep.note("fixed rate: %s scaled latency_ms p50 %.4g p95 %.4g max %.4g, ttfr_ms p50 %.4g p95 %.4g (n=%d)", kind,
			median(xs), quantile(xs, 95), quantile(xs, 100), median(ts), quantile(ts, 95), len(xs))
	}
	rep.note("fixed rate: %d requests, %d failed, error_rate %.4g, gen.lag_ms p50 %.3g tail %.3g, backlog max %d, reloads %d (p50 %.3g ms)",
		ph.attempted, ph.failed, float64(ph.failed)/float64(max(1, ph.attempted)),
		median(ph.loop.lag), summarize(ph.loop.lag, ceiling).tail, ph.loop.backlogMax(), len(ph.reloads), median(ph.reloads))

	// The ladder: bisection finds the highest rate whose tail stays under
	// the limit with no failure and no growing backlog. The first probe's
	// rate is run once unjudged before it: gcxd and the generator grow
	// their heaps to a heavy load's size there, which made the first
	// judged probe fail on runs whose later, faster probes passed. Each
	// probe starts from an idle gcxd, so its first quarter is a warm-up
	// too: checked, its failures counted, its latency and backlog not
	// judged.
	rung := cfg.budget(0.4) / time.Duration(ladderProbes()+1)
	lo, hi := -1, len(fleetLadder) // highest rung known to pass, lowest known to fail
	warm, err := f.runPhase(client, srv, fleetLadder[(lo+hi)/2], rung, false, nil)
	if err != nil {
		return err
	}
	warm.count(rep, false)
	var best *phase
	var cal []float64 // calibration loops between the rungs, while gcxd is idle
	for hi-lo > 1 {
		cal = append(cal, calibrate(), calibrate(), calibrate())
		mid := (lo + hi) / 2
		rate := fleetLadder[mid]
		p, err := f.runPhase(client, srv, rate, rung, false, nil)
		if err != nil {
			return err
		}
		p.count(rep, false)
		judged := len(p.results) / 4
		xs := p.values("lat", func(i int) bool { return i >= judged })
		tail := quantile(xs, ladderTailP)
		pass := p.failed == 0 && p.mismatches == 0 && !p.loop.growing(judged) && tail < ms(w.limit)
		rep.note("ladder %g req/s: held %.4g req/s, judged latency_ms p50 %.4g p%d %.4g (n=%d), backlog max %d, pass %v",
			rate, p.loop.held, median(xs), ladderTailP, tail, len(xs), p.loop.backlogMax(), pass)
		if pass {
			lo, best = mid, p
		} else {
			hi = mid
		}
	}
	rep.set("latency_p50_ms", lat.p50)
	rep.set("latency_tail_ms", lat.tail)
	rep.set("ttfr_p50_ms", ttfr.p50)
	rep.set("ttfr_tail_ms", ttfr.tail)
	cal = append(cal, calibrate(), calibrate(), calibrate())
	if best == nil {
		rep.note("no ladder rate met the limit; max_rate_rps and throughput_mb_s are the fixed-rate phase's")
		best = ph
	}
	// The rate the generator held on the highest passing rung is the
	// rung's nominal rate up to dispatch jitter. Which rung passes follows
	// the host's speed, so the rate is scaled to the reference speed by
	// the calibration loops timed between the rungs, as the solo
	// workloads' rates are: over ten seeds on the reference host this
	// narrowed its spread from 0.16 to 0.11. Throughput is the request
	// body bytes that rate carries.
	held := best.loop.held
	rate := held / speed(cal)
	rep.note("ladder: highest passing rate held %.4g req/s; calibration loop median %.4g ms between the rungs; scaled %.4g req/s",
		held, median(cal), rate)
	rep.set("max_rate_rps", rate)
	rep.set("throughput_mb_s", rate*float64(best.bytesIn)/float64(max(1, best.ok))/1e6)
	return nil
}

func tracedFleet(rep *report, w workload, cfg runConfig, f *fleet, srv fleetServer, client *http.Client) error {
	end := time.Now().Add(cfg.budget(1))
	ceiling := cfg.seconds * 1000
	c0, err := cacheStats(srv.url())
	if err != nil {
		return err
	}
	// Every other request is traced, shifting by one each block of ten so
	// each kind of request is traced half the time: the tracing overhead
	// compares requests sent under the same load.
	rec := newRecorder()
	traced := func(i int) bool { return (i+i/10)%2 == 0 }
	ph, err := f.runPhase(client, srv, fleetRate, cfg.budget(0.4), false, func(i int) *recorder {
		if traced(i) {
			return rec
		}
		return nil
	})
	if err != nil {
		return err
	}
	c1, err := cacheStats(srv.url())
	if err != nil {
		return err
	}
	ph.count(rep, true)
	untraced := func(i int) bool { return !traced(i) }
	tracedLat, untracedLat := ph.values("lat", traced), ph.values("lat", untraced)
	tr := summarize(ph.values("transport", traced), ceiling)
	rep.set("server.transport_ms_p50", tr.p50)
	rep.set("server.transport_ms_tail", tr.tail)
	rep.set("server.ttfb_ms", median(ph.values("ttfb", traced)))
	if len(ph.reloads) == 0 {
		rep.note("no reload fell within the traced phase")
		rep.set("server.reload_ms", 0)
	} else {
		rep.set("server.reload_ms", median(ph.reloads))
	}
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	rep.set("server.cache_hit_ratio", float64(hits)/float64(max(1, hits+misses)))
	rep.set("server.errors_4xx", float64(ph.errors4xx))
	rep.set("server.errors_5xx", float64(ph.errors5xx))
	lag := summarize(ph.loop.lag, ceiling)
	rep.set("gen.lag_ms", lag.tail)
	rep.set("gen.backlog_max", float64(ph.loop.backlogMax()))
	rep.note("server.transport_ms %s; gen.lag_ms %s", tr, lag)
	rep.note("server.reload_ms over %d reloads: p50 %.4g", len(ph.reloads), median(ph.reloads))

	// In process: the ledger over the Table 1 queries, compiles, and a
	// registry holding the same fleet over the same documents.
	lqs := make([]*ledgerQuery, 0, len(queries.All()))
	for _, q := range queries.All() {
		wants := make([][]byte, len(f.docs))
		eng, err := gcx.Compile(q.Text)
		if err != nil {
			return err
		}
		for d, doc := range f.docs {
			var b bytes.Buffer
			if _, err := eng.Run(bytes.NewReader(doc), &b); err != nil {
				return err
			}
			wants[d] = b.Bytes()
		}
		lq, err := newLedgerQuery(q, wants)
		if err != nil {
			return err
		}
		lqs = append(lqs, lq)
	}
	distinct := make([]string, fleetTexts)
	for i := range distinct {
		distinct[i] = fleetText("v", i)
	}
	compileMs, err := compileLayer(rec, distinct)
	if err != nil {
		return err
	}
	rep.set("static.compile_ms_per_query", compileMs)
	reg, err := registryLayer(rec, f.ids, f.boot, f.docs, f.want, cfg.budget(0.15))
	if err != nil {
		return err
	}
	reg.count(rep)
	reg.set(rep)
	// The ledger takes the rest of the run.
	led, err := runLedger(rec, lqs, f.docs, time.Until(end))
	if err != nil {
		return err
	}
	led.count(rep)
	setLedgerMetrics(rep, led, rec)
	// The workload's tracing overhead is the end-to-end one: traced
	// requests against untraced ones, not the ledger's in-process runs.
	tl, ul := summarize(tracedLat, ceiling), summarize(untracedLat, ceiling)
	rep.set("trace.overhead_ratio", tl.p50/ul.p50-1)
	rep.note("tracing overhead: request latency p50 %.4g ms traced vs %.4g ms untraced", tl.p50, ul.p50)
	return dumpSpans(rep, rec, w, cfg)
}
