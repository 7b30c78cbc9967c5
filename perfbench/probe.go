package main

import (
	"math"
	"time"
)

// The host-speed probe. The benchmark shares its machine with other
// tenants, and their load changes the speed of the same code by tens of
// percent from one minute to the next. Medians over a run do not remove
// that: a whole run can fall in a slow minute. So every timed chunk of a
// measured phase, and every set-up sample, is followed by a probe, a fixed
// piece of register arithmetic that uses nothing of the simulator and
// touches no memory. A host time is reported at the reference speed: it is
// scaled by (probeRefNS / p)^probeExponent, where p is the median time of
// the probes taken around it. A change to the simulator does not change the
// probe's work, so it moves the scaled times as it moves the raw ones.
const (
	// probeRefNS is the probe's median time on the reference machine (the
	// one TRAJECTORY.md describes) in a quiet minute, so that scaled times
	// are host times at that machine's quiet speed.
	probeRefNS = 27000

	// probeExponent is how much more than the probe the simulator slows
	// down when the host is loaded: the simulator also waits on caches and
	// memory that the other tenants share, and the probe does not. On the
	// reference machine a round's unscaled time went as the probe's time
	// to the power 2.0 (log-log fit over 418 rounds of the three
	// workloads, correlation 0.88-0.93) in a loaded hour, and nearer 1 in
	// quieter ones; 1.5 gave the smallest run-to-run spread over both.
	probeExponent = 1.5

	// probeIters is the probe's work; probeSpan is how many probes on
	// each side of a chunk join its median, which a single probe slowed
	// by an interrupt does not move.
	probeIters  = 10000
	probeSpan   = 5
	probeWarmup = 200
)

var probeState uint64 = 88172645463325252

// warmProbe runs the probe a few times before anything is timed.
func warmProbe() {
	for i := 0; i < probeWarmup; i++ {
		probe()
	}
}

// probe runs the probe's fixed work and returns its host time in ns.
func probe() float64 {
	t0 := time.Now()
	x := probeState
	var acc uint64
	for i := 0; i < probeIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x * (acc | 1)
		if acc&3 == 0 {
			acc ^= x >> 3
		}
	}
	probeState = x ^ acc
	return float64(time.Since(t0).Nanoseconds())
}

// speeds returns, for each of a sequence of probe times, the median of it
// and of the probeSpan probes on each side.
func speeds(probes []float64) []float64 {
	out := make([]float64, len(probes))
	for i := range probes {
		out[i] = median(probes[max(0, i-probeSpan):min(len(probes), i+probeSpan+1)])
	}
	return out
}

// speedScale returns the factor that takes a host time measured next to
// probes of median time p to the reference speed.
func speedScale(p float64) float64 { return math.Pow(probeRefNS/p, probeExponent) }

// chunk is one timed piece of a measured phase.
type chunk struct {
	cycles int
	// ns is the chunk's host time; probeNS is the time of the probe run
	// right after it.
	ns, probeNS float64
}

// endChunk closes a chunk of cycles that started at t0 and runs its probe.
func endChunk(t0 time.Time, cycles int) chunk {
	ns := float64(time.Since(t0).Nanoseconds())
	return chunk{cycles: cycles, ns: ns, probeNS: probe()}
}

// scaled returns the chunks with their times at the reference speed, each
// scaled by the median of the probes around it.
func scaled(chunks []chunk) []chunk {
	probes := make([]float64, len(chunks))
	for i, c := range chunks {
		probes[i] = c.probeNS
	}
	out := make([]chunk, len(chunks))
	for i, s := range speeds(probes) {
		out[i] = chunks[i]
		out[i].ns *= speedScale(s)
	}
	return out
}
