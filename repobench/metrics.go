package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric names one reported figure and its unit. The names and units
// here are the ones BENCHMARK.json declares; TestMetricTableMatchesBenchmarkJSON
// keeps the two in step.
type metric struct{ name, unit string }

// endToEndMetrics are what a user of the system sees. Every workload
// reports every one of them (see README.md for what each means on the
// solo workloads and on gcxd-fleet).
var endToEndMetrics = []metric{
	{"setup_s", "s"},
	{"throughput_mb_s", "MB/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"ttfr_p50_ms", "ms"},
	{"ttfr_tail_ms", "ms"},
	{"peak_buffer_bytes", "B"},
	{"alloc_bytes_per_mb", "B/MB"},
	{"max_rate_rps", "req/s"},
}

// checkMetrics are printed by every run. They are 0 on a correct run, so
// they cannot carry a relative bound and are not BENCHMARK.json metrics;
// the result line carries them as "failed" and "correct".
var checkMetrics = []metric{
	{"error_rate", "ratio"},
	{"output_mismatches", "count"},
}

// tableQueries are the Table 1 queries the ledger breaks down one by one.
var tableQueries = []string{"q1", "q6", "q8", "q13", "q20"}

// perLayerMetrics come from the traced run. A metric that does not apply
// to a workload (the server's on a solo workload, a query the workload
// does not run) reads 0.
var perLayerMetrics = func() []metric {
	ms := []metric{
		{"xmlstream.index_ns_per_byte", "ns/B"},
		{"xmlstream.tokenize_self_ns_per_byte", "ns/B"},
		{"xmlstream.tokens_per_doc", "count"},
		{"xmlstream.share", "ratio"},
		{"proj.self_ns_per_byte", "ns/B"},
		{"proj.keep_ratio", "ratio"},
		{"proj.share", "ratio"},
		{"buffer.peak_nodes", "count"},
		{"buffer.buffered_total", "count"},
		{"buffer.purged_total", "count"},
		{"buffer.sign_offs", "count"},
		{"buffer.purge_ratio", "ratio"},
		{"eval.self_ns_per_byte", "ns/B"},
		{"eval.allocs_per_doc", "count"},
		{"eval.ttfr_ms", "ms"},
		{"eval.share", "ratio"},
		{"sink.write_ns_per_doc", "ns"},
		{"sink.share", "ratio"},
		{"static.compile_ms_per_query", "ms"},
		{"static.subscribe_us", "us"},
		{"registry.run_ns_per_byte", "ns/B"},
		{"registry.groups", "count"},
		{"registry.output_bytes_per_doc", "B"},
		{"server.transport_ms_p50", "ms"},
		{"server.transport_ms_tail", "ms"},
		{"server.ttfb_ms", "ms"},
		{"server.reload_ms", "ms"},
		{"server.cache_hit_ratio", "ratio"},
		{"server.errors_4xx", "count"},
		{"server.errors_5xx", "count"},
		{"gen.lag_ms", "ms"},
		{"gen.backlog_max", "count"},
		{"trace.overhead_ratio", "ratio"},
		{"trace.spans", "count"},
	}
	for _, q := range tableQueries {
		ms = append(ms,
			metric{q + ".xmlstream.share", "ratio"},
			metric{q + ".proj.self_ns_per_byte", "ns/B"},
			metric{q + ".eval.self_ns_per_byte", "ns/B"},
			metric{q + ".eval.share", "ratio"},
		)
	}
	return ms
}()

// report collects one run's figures, its notes for the reader, and the
// operation counts of the result line. unexpected counts the failures of
// operations that must not fail: solo and in-process runs, and requests
// at gcxd-fleet's fixed rate. Only the rate ladder may fail, when it
// overloads the server.
type report struct {
	values     map[string]float64
	notes      []string
	attempted  int
	failed     int
	unexpected int
	mismatches int
}

// correct reports whether the run checked something and every check held.
func (r *report) correct() bool {
	return r.attempted > 0 && r.mismatches == 0 && r.unexpected == 0
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// errorRate is failed or refused operations over operations attempted.
func (r *report) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

// write prints the notes, every figure with its unit, and last the JSON
// result line holding the mode's metrics: the end-to-end ones untraced,
// the per-layer ones traced. A metric the run did not produce, or one
// that is not a finite number, is an error: the result line would
// otherwise silently lack it.
func (r *report) write(w io.Writer, traced bool) error {
	r.set("error_rate", r.errorRate())
	r.set("output_mismatches", float64(r.mismatches))
	want := endToEndMetrics
	if traced {
		want = perLayerMetrics
	}
	line := resultLine{
		Correct:   r.correct(),
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]resultValue{},
	}
	for _, m := range want {
		v, ok := r.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s: not measured (value %v)", m.name, v)
		}
		line.Metrics[m.name] = resultValue{Value: v, Unit: m.unit}
	}
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	units := map[string]string{}
	for _, m := range append(append(append([]metric{}, endToEndMetrics...), checkMetrics...), perLayerMetrics...) {
		units[m.name] = m.unit
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, r.values[n], units[n])
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
