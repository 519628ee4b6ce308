package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"gcx"
	"gcx/internal/buffer"
	"gcx/internal/engine"
	"gcx/internal/proj"
	"gcx/internal/queries"
	"gcx/internal/xmlstream"
)

// The ledger splits a run's cost across layers by cumulative cut points
// on the same input:
//
//	index     StructIndex.Build over the document
//	tokenize  Tokenizer.Next to EOF (the tokenizer classifies with the index)
//	project   Projector.Step to EOF into a buffer that is never purged
//	run       Engine.Run into the checking sink
//
// A layer's self time is its cut minus the cut before it; eval's is the
// run's self time (the run minus its sink.write child spans) minus the
// project cut. Because the project cut never purges, it buffers what a
// StaticOnly run would; eval's self time is therefore net of projection
// as the engine's own buffer policy would do it, not an exact split.

// ledgerQuery holds one query's engine and the projection-only chain the
// project cut drives, plus the per-pass measurements.
type ledgerQuery struct {
	name string
	eng  *gcx.Engine
	want [][]byte // expected output, by document
	tok  *xmlstream.Tokenizer
	buf  *buffer.Buffer
	proj *proj.Projector

	// Per pass, in ns per input byte: the cut points, and the run's total
	// and self time.
	index, tokenize, project, runTotalNsPB []float64
	runSpan                                []int
	runBytes                               []float64
	runTotal                               []float64 // ms
	untraced                               []float64 // ms, the same run without spans
	tokens, allocs, ttfr                   []float64
	stats                                  []gcx.Stats
}

func newLedgerQuery(q queries.Query, want [][]byte) (*ledgerQuery, error) {
	eng, err := gcx.Compile(q.Text)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	c, err := engine.Compile(q.Text, engine.Config{Mode: engine.ModeGCX})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.Name, err)
	}
	tree := c.MatchTree
	agg := make([]bool, len(tree.Roles))
	for i, r := range tree.Roles {
		agg[i] = i > 0 && r.Aggregate
	}
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	buf := buffer.New(xmlstream.NewSymTab(), len(tree.Roles)-1, agg)
	p := proj.New(tok, buf, tree, proj.Options{AggregateRoles: c.Analysis.Opts.AggregateRoles, BorrowedText: true})
	return &ledgerQuery{name: strings.ToLower(q.Name), eng: eng, want: want, tok: tok, buf: buf, proj: p}, nil
}

// ledgerResult is what the traced passes measured.
type ledgerResult struct {
	queries                       []*ledgerQuery
	attempted, failed, mismatches int
}

// count adds the passes to the report. A pass must not fail: each is a
// run the oracle completed.
func (l *ledgerResult) count(rep *report) {
	rep.attempted += l.attempted
	rep.failed += l.failed
	rep.unexpected += l.failed
	rep.mismatches += l.mismatches
}

// runLedger makes traced cut-point passes over every (query, document)
// pair, round-robin, for at least d and at least one pass per pair.
func runLedger(rec *recorder, lqs []*ledgerQuery, docs [][]byte, d time.Duration) (*ledgerResult, error) {
	res := &ledgerResult{queries: lqs}
	var ix xmlstream.StructIndex
	opts := xmlstream.DefaultOptions()
	opts.BorrowText = true
	tok := xmlstream.NewTokenizerOptions(nil, opts)
	var r bytes.Reader
	var sink checkSink
	var m0, m1 runtime.MemStats
	pairs := len(lqs) * len(docs)
	start := time.Now()
	for i := 0; i < pairs || time.Since(start) < d; i++ {
		lq := lqs[i%len(lqs)]
		di := (i / len(lqs)) % len(docs)
		doc := docs[di]
		req := int64(i + 1)
		nb := float64(len(doc))

		root := rec.begin("ledger."+lq.name, -1, req)
		sp := rec.begin("xmlstream.index", root, req)
		ix.Build(doc)
		tIndex := rec.end(sp)

		sp = rec.begin("xmlstream.tokenize", root, req)
		r.Reset(doc)
		tok.Reset(&r)
		n, err := drainTokens(tok)
		tTok := rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s tokenize: %w", lq.name, err)
		}

		sp = rec.begin("proj.project", root, req)
		r.Reset(doc)
		lq.tok.Reset(&r)
		lq.buf.Reset()
		lq.proj.Reset()
		err = drainProjector(lq.proj)
		tProj := rec.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s project: %w", lq.name, err)
		}

		runtime.ReadMemStats(&m0)
		sp = rec.begin("eval.run", root, req)
		sink.reset(lq.want[di])
		sink.traceUnder(rec, sp, req)
		r.Reset(doc)
		st, err := lq.eng.Run(&r, &sink)
		tRun := rec.end(sp)
		runtime.ReadMemStats(&m1)
		rec.end(root)
		sink.traceUnder(nil, -1, 0)

		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		if !sink.ok() {
			res.mismatches++
		}

		// The same run untraced, for the tracing overhead: interleaved, so
		// both see the same heap and the same neighbours.
		sink.reset(lq.want[di])
		r.Reset(doc)
		t0 := time.Now()
		_, err = lq.eng.Run(&r, &sink)
		lq.untraced = append(lq.untraced, ms(time.Since(t0)))
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		if !sink.ok() {
			res.mismatches++
		}

		lq.index = append(lq.index, float64(tIndex)/nb)
		lq.tokenize = append(lq.tokenize, float64(tTok)/nb)
		lq.project = append(lq.project, float64(tProj)/nb)
		lq.runTotalNsPB = append(lq.runTotalNsPB, float64(tRun)/nb)
		lq.runTotal = append(lq.runTotal, ms(tRun))
		lq.runSpan = append(lq.runSpan, sp)
		lq.runBytes = append(lq.runBytes, nb)
		lq.tokens = append(lq.tokens, float64(n))
		lq.allocs = append(lq.allocs, float64(m1.Mallocs-m0.Mallocs))
		if st.TimeToFirstResultNanos > 0 {
			lq.ttfr = append(lq.ttfr, float64(st.TimeToFirstResultNanos)/1e6)
		}
		lq.stats = append(lq.stats, st)
	}
	for _, lq := range lqs {
		if len(lq.stats) == 0 {
			return nil, fmt.Errorf("%s: no successful ledger pass", lq.name)
		}
	}
	return res, nil
}

// drainTokens and drainProjector are concrete-typed loops, as the
// engine's own callers are, so the compiler treats the calls the same.
func drainTokens(t *xmlstream.Tokenizer) (int64, error) {
	var n int64
	for {
		tk, err := t.Next()
		if err != nil {
			return n, err
		}
		if tk.Kind == xmlstream.EOF {
			return n, nil
		}
		n++
	}
}

func drainProjector(p *proj.Projector) error {
	for {
		more, err := p.Step()
		if err != nil || !more {
			return err
		}
	}
}

// layerSplit is one query's (or the workload's) self time per layer in
// ns per input byte.
type layerSplit struct {
	index, tokenizeSelf, projSelf, evalSelf, sink, run float64
}

func (l layerSplit) share(v float64) float64 { return v / l.run }

// split turns a query's passes into medians per cut and differences
// between consecutive cuts.
func (lq *ledgerQuery) split(self []time.Duration) layerSplit {
	runSelf := make([]float64, len(lq.runSpan))
	sink := make([]float64, len(lq.runSpan))
	for i, sp := range lq.runSpan {
		runSelf[i] = float64(self[sp]) / lq.runBytes[i]
		sink[i] = lq.runTotalNsPB[i] - runSelf[i]
	}
	idx, tok, prj, rs := median(lq.index), median(lq.tokenize), median(lq.project), median(runSelf)
	return layerSplit{
		index:        idx,
		tokenizeSelf: tok - idx,
		projSelf:     prj - tok,
		evalSelf:     rs - prj,
		sink:         median(sink),
		run:          median(lq.runTotalNsPB),
	}
}

// setLedgerMetrics reports the workload's per-layer figures (the mean of
// its queries' splits; all of a workload's queries read the same
// documents) and each Table 1 query's own breakdown, and checks the
// shares against the re-anchor profiles.
func setLedgerMetrics(rep *report, led *ledgerResult, rec *recorder) {
	self := rec.selfTimes()
	var sum layerSplit
	var tokens, buffered, purged, signOffs, allocs, ttfr, sinkNs, tokensRead float64
	var peakNodes int64
	var traced, untraced float64
	byName := map[string]layerSplit{}
	for _, lq := range led.queries {
		s := lq.split(self)
		byName[lq.name] = s
		sum.index += s.index
		sum.tokenizeSelf += s.tokenizeSelf
		sum.projSelf += s.projSelf
		sum.evalSelf += s.evalSelf
		sum.sink += s.sink
		sum.run += s.run
		tokens += median(lq.tokens)
		allocs += median(lq.allocs)
		if len(lq.ttfr) > 0 {
			ttfr += median(lq.ttfr)
		}
		sinkNs += s.sink * median(lq.runBytes)
		st := lq.stats[len(lq.stats)-1]
		buffered += float64(st.BufferedTotal)
		purged += float64(st.PurgedTotal)
		signOffs += float64(st.SignOffs)
		tokensRead += float64(st.TokensRead)
		peakNodes = max(peakNodes, st.PeakBufferNodes)
		rep.note("%s ledger ns/B: index %.3g tokenize %.3g project %.3g eval %.3g sink %.3g of run %.3g (%d passes)",
			lq.name, s.index, s.tokenizeSelf, s.projSelf, s.evalSelf, s.sink, s.run, len(lq.stats))
		traced += median(lq.runTotal)
		untraced += median(lq.untraced)
		rep.note("%s shares: xmlstream %.3f proj %.3f eval %.3f sink %.3f", lq.name,
			s.share(s.index+s.tokenizeSelf), s.share(s.projSelf), s.share(s.evalSelf), s.share(s.sink))
	}
	n := float64(len(led.queries))
	rep.set("xmlstream.index_ns_per_byte", sum.index/n)
	rep.set("xmlstream.tokenize_self_ns_per_byte", sum.tokenizeSelf/n)
	rep.set("xmlstream.tokens_per_doc", tokens/n)
	rep.set("xmlstream.share", sum.share(sum.index+sum.tokenizeSelf))
	rep.set("proj.self_ns_per_byte", sum.projSelf/n)
	rep.set("proj.keep_ratio", buffered/tokensRead)
	rep.set("proj.share", sum.share(sum.projSelf))
	rep.set("buffer.peak_nodes", float64(peakNodes))
	rep.set("buffer.buffered_total", buffered/n)
	rep.set("buffer.purged_total", purged/n)
	rep.set("buffer.sign_offs", signOffs/n)
	rep.set("buffer.purge_ratio", purged/buffered)
	rep.set("eval.self_ns_per_byte", sum.evalSelf/n)
	rep.set("eval.allocs_per_doc", allocs/n)
	rep.set("eval.ttfr_ms", ttfr/n)
	rep.set("eval.share", sum.share(sum.evalSelf))
	rep.set("sink.write_ns_per_doc", sinkNs/n)
	rep.set("sink.share", sum.share(sum.sink))
	rep.set("trace.overhead_ratio", traced/untraced-1)
	rep.note("tracing overhead: Engine.Run p50 %.4g ms traced vs %.4g ms untraced (sum over queries)", traced, untraced)
	for _, q := range tableQueries {
		s, ok := byName[q]
		if !ok {
			for _, suffix := range []string{".xmlstream.share", ".proj.self_ns_per_byte", ".eval.self_ns_per_byte", ".eval.share"} {
				rep.set(q+suffix, 0)
			}
			continue
		}
		rep.set(q+".xmlstream.share", s.share(s.index+s.tokenizeSelf))
		rep.set(q+".proj.self_ns_per_byte", s.projSelf)
		rep.set(q+".eval.self_ns_per_byte", s.evalSelf)
		rep.set(q+".eval.share", s.share(s.evalSelf))
	}
	// The re-anchor profiles: Q1 spends about 55% of its CPU in the
	// tokenizer, Q8 is dominated by the evaluator. Disagreement is
	// reported, not tuned away.
	if s, ok := byName["q1"]; ok {
		sh := s.share(s.index + s.tokenizeSelf)
		verdict := "agrees"
		if sh < 0.40 || sh > 0.70 {
			verdict = "DISAGREES"
		}
		rep.note("profile check: q1 xmlstream share %.3f vs ~0.55 in the re-anchor profile: %s", sh, verdict)
	}
	if s, ok := byName["q8"]; ok {
		ev := s.share(s.evalSelf)
		verdict := "agrees"
		if ev < s.share(s.index+s.tokenizeSelf) || ev < s.share(s.projSelf) {
			verdict = "DISAGREES"
		}
		rep.note("profile check: q8 eval share %.3f should dominate (xmlstream %.3f, proj %.3f): %s",
			ev, s.share(s.index+s.tokenizeSelf), s.share(s.projSelf), verdict)
	}
}

// compileLayer times gcx.Compile of each text, as static.compile spans,
// and returns the median in ms.
func compileLayer(rec *recorder, texts []string) (float64, error) {
	var times []float64
	for rep := 0; rep < 5; rep++ {
		for _, t := range texts {
			sp := rec.begin("static.compile", -1, 0)
			_, err := gcx.Compile(t)
			d := rec.end(sp)
			if err != nil {
				return 0, err
			}
			times = append(times, ms(d))
		}
	}
	return median(times), nil
}

// regResult is what the in-process registry measured.
type regResult struct {
	groups                        int
	nsPerByte, outPerDoc          float64
	subscribeUs                   float64
	attempted, failed, mismatches int
}

// count adds the runs to the report. A run must not fail.
func (r regResult) count(rep *report) {
	rep.attempted += r.attempted
	rep.failed += r.failed
	rep.unexpected += r.failed
	rep.mismatches += r.mismatches
}

func (r regResult) set(rep *report) {
	rep.set("static.subscribe_us", r.subscribeUs)
	rep.set("registry.run_ns_per_byte", r.nsPerByte)
	rep.set("registry.groups", float64(r.groups))
	rep.set("registry.output_bytes_per_doc", r.outPerDoc)
}

// maxRegistryRuns bounds the traced registry runs: each run of the
// 1024-subscription fleet records a span per delivery, and 64 runs give a
// steady median.
const maxRegistryRuns = 64

// registryLayer subscribes ids[i] to texts[i] in an in-process
// gcx.Registry and runs it over the documents: once per document, then on
// for d or until maxRegistryRuns runs. Every member's output is compared
// with want, the solo output of the same text.
func registryLayer(rec *recorder, ids, texts []string, docs [][]byte, want func(text string, doc int) ([]byte, error), d time.Duration) (regResult, error) {
	var res regResult
	reg, err := gcx.NewRegistry()
	if err != nil {
		return res, err
	}
	t0 := time.Now()
	for i, id := range ids {
		sp := rec.begin("static.subscribe", -1, 0)
		_, err := reg.Subscribe(id, texts[i])
		rec.end(sp)
		if err != nil {
			return res, fmt.Errorf("subscribe %s: %w", id, err)
		}
	}
	res.subscribeUs = float64(time.Since(t0).Microseconds()) / float64(len(ids))
	res.groups = reg.Groups()

	sinks := make(map[string]*checkSink, len(ids))
	textOf := make(map[string]string, len(ids))
	for i, id := range ids {
		sinks[id] = &checkSink{}
		textOf[id] = texts[i]
	}
	sink := gcx.SinkFunc(func(s *gcx.Subscription) io.Writer { return sinks[s.ID()] })
	var spans []int
	var nbs, outs []float64
	start := time.Now()
	for i := 0; i < len(docs) || (i < maxRegistryRuns && time.Since(start) < d); i++ {
		di := i % len(docs)
		req := int64(1_000_000 + i)
		sp := rec.begin("registry.run", -1, req)
		for id, s := range sinks {
			w, err := want(textOf[id], di)
			if err != nil {
				return res, err
			}
			s.reset(w)
			s.traceUnder(rec, sp, req)
		}
		_, err := reg.Run(bytes.NewReader(docs[di]), sink)
		rec.end(sp)
		res.attempted++
		if err != nil {
			res.failed++
			continue
		}
		var out int
		for _, s := range sinks {
			if !s.ok() {
				res.mismatches++
			}
			out += s.off
		}
		spans = append(spans, sp)
		nbs = append(nbs, float64(len(docs[di])))
		outs = append(outs, float64(out))
	}
	if len(spans) == 0 {
		return res, fmt.Errorf("registry: no successful run")
	}
	self := rec.selfTimes()
	nspb := make([]float64, len(spans))
	for i, sp := range spans {
		nspb[i] = float64(self[sp]) / nbs[i]
	}
	res.nsPerByte = median(nspb)
	res.outPerDoc = median(outs)
	return res, nil
}
