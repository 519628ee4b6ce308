package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// checkSink is the io.Writer every measured run writes its result into.
// It compares the bytes against the expected output as they arrive, so a
// run is checked without keeping its output, and stamps the first write
// (time to first result as the sink sees it). When tracing, each Write is
// a sink.write span under the run's span.
type checkSink struct {
	want  []byte
	off   int
	bad   bool
	first time.Time

	rec    *recorder
	parent int
	req    int64
}

func (s *checkSink) reset(want []byte) {
	s.want, s.off, s.bad, s.first = want, 0, false, time.Time{}
}

// traceUnder makes each later Write a child span of parent.
func (s *checkSink) traceUnder(rec *recorder, parent int, req int64) {
	s.rec, s.parent, s.req = rec, parent, req
}

func (s *checkSink) Write(p []byte) (int, error) {
	if len(p) > 0 && s.first.IsZero() {
		s.first = time.Now()
	}
	sp := s.rec.begin("sink.write", s.parent, s.req)
	if !s.bad && (s.off+len(p) > len(s.want) || !bytes.Equal(p, s.want[s.off:s.off+len(p)])) {
		s.bad = true
	}
	s.off += len(p)
	s.rec.end(sp)
	return len(p), nil
}

// ok reports whether exactly the expected bytes were written.
func (s *checkSink) ok() bool { return !s.bad && s.off == len(s.want) }

// goldenDigests holds the oracle digest of each (workload, seed) pair
// recorded for the primary and hold-out seeds. The oracles are the
// repo's own (FullBuffer, solo Engine.Run), so a change that altered the
// program's output and its oracle alike would still show here.
//
//go:embed digests.json
var goldenDigestsJSON []byte

// outputDigest hashes the oracle outputs of one (workload, seed) pair in
// their fixed order.
func outputDigest(outputs [][]byte) string {
	h := sha256.New()
	for _, o := range outputs {
		fmt.Fprintf(h, "%d:", len(o))
		h.Write(o)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkDigest records the digest in the report and compares it with the
// golden one, if the pair has one. A differing digest is one mismatch.
func checkDigest(rep *report, workload string, seed uint64, outputs [][]byte) error {
	var golden map[string]string
	if err := json.Unmarshal(goldenDigestsJSON, &golden); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	key := fmt.Sprintf("%s/%d", workload, seed)
	got := outputDigest(outputs)
	want, ok := golden[key]
	switch {
	case !ok:
		rep.note("digest %s = %s (no golden digest for this seed)", key, got)
	case want == got:
		rep.note("digest %s = %s (matches golden)", key, got)
	default:
		rep.note("digest %s = %s, golden %s: MISMATCH", key, got, want)
		rep.mismatches++
	}
	return nil
}
