package main

import (
	"sort"
	"time"
)

// The reference host shares its CPUs with other tenants, and its speed
// drifts by a fifth or more over minutes. A solo run therefore times a
// fixed calibration loop before its first round and after each round, and
// scales each round's times to the speed at which the loop takes
// calRefMs. The loop does not touch the program under test, so a change
// to the program moves the scaled figures exactly as it moves the raw
// ones; the raw figures are printed in the run's notes.

// calRefMs is the calibration loop's median time on the reference host
// (2 vCPUs, go1.24).
const calRefMs = 20.0

const calAlphabet = `<a>bc d</e>&f="g"hijklmnop`

// calBuf and calInts are the loop's fixed inputs.
var calBuf = func() []byte {
	b := make([]byte, 1<<20)
	x := uint64(88172645463325252)
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = calAlphabet[x%uint64(len(calAlphabet))]
	}
	return b
}()

var calInts = func() []int {
	v := make([]int, 1<<15)
	x := uint64(2862933555777941757)
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = int(x >> 1)
	}
	return v
}()

var (
	calScratch = make([]int, len(calInts))
	calSink    uint64
)

// calibrate times the loop once, in ms: branchy byte-class scanning and a
// sort, the kind of work a parser does.
func calibrate() float64 {
	t0 := time.Now()
	var lt, gt, amp, q, other uint64
	for rep := 0; rep < 2; rep++ {
		for _, c := range calBuf {
			switch c {
			case '<':
				lt++
			case '>':
				gt++
			case '&':
				amp++
			case '"':
				q++
			default:
				other += uint64(c)
			}
		}
	}
	copy(calScratch, calInts)
	sort.Ints(calScratch)
	calSink += lt + gt + amp + q + other + uint64(calScratch[len(calScratch)/2])
	return ms(time.Since(t0))
}

// speed returns the factor that scales a time measured alongside the
// calibration samples to the reference host's speed.
func speed(samples []float64) float64 {
	return calRefMs / median(samples)
}

// calSlots is how many schedule slots of gcxd-fleet's fixed-rate phase
// lie between two timings of the calibration loop: one second at 40
// req/s. The loop keeps one CPU busy for about 20 ms.
const calSlots = 40

// calOffset places each timing in a quiet part of the schedule: just after
// the short /query request of slot 3, when the full-fleet /workload of
// slot 0 has returned, and ending before slot 4's request is sent. A loop
// timed while the server works would measure the server's load, not the
// host's speed, and would slow the requests it overlaps.
const calOffset = 3.1

// sampleSpeed times the calibration loop at the quiet slot of every
// calSlots slots of a schedule that started at start with rate, until
// stop is closed.
func sampleSpeed(start time.Time, rate float64, stop <-chan struct{}) []float64 {
	var out []float64
	for k := calOffset; ; k += calSlots {
		t := time.NewTimer(time.Until(start.Add(time.Duration(k / rate * float64(time.Second)))))
		select {
		case <-stop:
			t.Stop()
			return out
		case <-t.C:
		}
		out = append(out, calibrate())
	}
}
