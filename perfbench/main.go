// Command perfbench is the repository's benchmark. It runs one named
// workload of the UPP simulator for a host-time budget, checks that the
// simulated output is correct, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with
// tracing off; their host times are scaled to a reference host speed by
// the probe in probe.go. With -trace 1 the run alternates untraced and traced
// rounds and reports the per-layer metrics of the traced rounds plus the
// tracing overhead. BENCHMARK.json at the repository root declares the
// workloads and metrics; README.md in this directory explains them.
//
// Run it from the repository root with perfbench/run.sh, which builds it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// defaultSeed is the workload seed when -seed is not given.
const defaultSeed = 1

// A run times setupReps samples, each of at least setupBatch set-ups and
// at least setupSampleTime; setup_s and the set-up layer metrics are
// medians over the samples.
const (
	setupReps, setupBatch = 21, 5
	setupSampleTime       = 10 * time.Millisecond
)

// libraryEnv lists the environment variables the simulator library reads
// inside network.New and experiments. Each would change what is measured,
// so the benchmark clears them before it starts.
var libraryEnv = []string{"UPP_KERNEL", "UPP_ROUTER", "UPP_SHARDS", "UPP_NOPOOL", "UPP_JOBS", "UPP_CACHE_DIR", "UPP_CACHE_WARM"}

// metricDef declares one metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics printed with -trace 0, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"ns_per_cycle", "ns"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MiB"},
	{"allocs_per_cycle", "count"},
	{"sim_latency_p50_cycles", "cycles"},
	{"sim_latency_p99_cycles", "cycles"},
	{"sim_throughput", "flits/cycle/core"},
	{"sim_finish_cycles", "cycles"},
}

// perLayer are the metrics printed with -trace 1, in BENCHMARK.json order.
// A layer the workload does not use reads 0.
var perLayer = []metricDef{
	{"router.ns_per_cycle", "ns"},
	{"router.ns_per_step", "ns"},
	{"router.steps_per_cycle", "count"},
	{"router.sa_grant_ratio", "ratio"},
	{"core.detect_ns_per_cycle", "ns"},
	{"core.protocol_ns_per_cycle", "ns"},
	{"core.flit_hook_ns_per_cycle", "ns"},
	{"core.upward_packets", "count"},
	{"core.popups_completed", "count"},
	{"core.popups_cancelled", "count"},
	{"core.popup_useful_ratio", "ratio"},
	{"network.self_ns_per_cycle", "ns"},
	{"network.ejected_flits_per_cycle", "flits/cycle"},
	{"traffic.tick_ns_per_cycle", "ns"},
	{"workload.tick_ns_per_cycle", "ns"},
	{"workload.messages_delivered", "count"},
	{"topology.build_s", "s"},
	{"network.new_s", "s"},
	{"snap.restore_s", "s"},
	{"snap.bytes", "bytes"},
	{"trace.overhead_pct", "%"},
}

func main() {
	os.Exit(mainExit(os.Args[1:], os.Stdout, os.Stderr, expectedDigests))
}

// mainExit runs the command line args against the stored digests and
// returns the exit code.
func mainExit(args []string, stdout, stderr io.Writer, expected map[string]map[uint64]string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	opts := options{expected: expected}
	fs.StringVar(&opts.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&opts.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&opts.seconds, "seconds", 20, "host seconds to spend measuring (at least one round always runs)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced rounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench -workload NAME [-seed N] [-seconds S] [-trace 0|1]")
		return 2
	}
	opts.trace = *trace == 1
	if _, ok := findWorkload(opts.workload); !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", opts.workload, strings.Join(names, ", "))
		return 2
	}

	machine := machineRecord(clearLibraryEnv())
	rec, err := json.Marshal(machine)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "machine %s\n", rec)

	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	out := result{Correct: rep.correct, Attempted: rep.attempted, Failed: rep.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := rep.metrics[d.name]
		fmt.Fprintf(stdout, "%-34s %18.6f %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.correct {
		fmt.Fprintln(stderr, "perfbench: simulated output check failed")
		return 1
	}
	return 0
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// clearLibraryEnv unsets the library's environment variables and returns
// the ones that were set.
func clearLibraryEnv() []string {
	var cleared []string
	for _, k := range libraryEnv {
		if _, ok := os.LookupEnv(k); ok {
			_ = os.Unsetenv(k) // fails only for a malformed name
			cleared = append(cleared, k)
		}
	}
	return cleared
}

// machineRecord describes the host and build a run measured.
func machineRecord(cleared []string) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			commit = rev
			if modified == "true" {
				commit += "+modified"
			}
		}
	}
	return map[string]any{
		"num_cpu":     runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go_version":  runtime.Version(),
		"goos_goarch": runtime.GOOS + "/" + runtime.GOARCH,
		"commit":      commit,
		"cleared_env": cleared,
	}
}

// options configures one benchmark run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// expected maps workload and seed to the stored simulated digest.
	expected map[string]map[uint64]string
}

// report is the outcome of a run: the correctness verdict, operation
// counts, every metric (end-to-end and per-layer) and diagnostic lines.
type report struct {
	correct           bool
	attempted, failed int64
	// digest is the first untraced round's; tracedDigest the first traced
	// round's, if any.
	digest, tracedDigest string
	metrics              map[string]float64
	notes                []string
}

// run prepares the workload and measures rounds until the budget is spent.
// Each round sets up a fresh system in its warm state and runs the
// measured phase once; every round of a run simulates the same cycles, so
// every round must produce the same digest. With opts.trace the rounds
// alternate between untraced and traced. An error means the workload could
// not be prepared or set up; a wrong simulated output is reported through
// report.correct instead.
func run(opts options) (report, error) {
	def, ok := findWorkload(opts.workload)
	if !ok {
		return report{}, fmt.Errorf("unknown workload %q", opts.workload)
	}
	t0 := time.Now()
	b, err := def.prepare(opts.seed)
	if err != nil {
		return report{}, fmt.Errorf("%s: prepare: %w", def.name, err)
	}
	prepare := time.Since(t0)

	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	warmProbe()
	// The first sample is not kept: it grows the fresh process's heap,
	// which a long sweep pays once.
	if _, err := setupSample(b, nil); err != nil {
		return report{}, fmt.Errorf("%s: setup: %w", def.name, err)
	}
	var tracedSetups []setupTimes
	for tr != nil && len(tracedSetups) < setupReps {
		st, err := setupSample(b, tr)
		if err != nil {
			return report{}, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		tracedSetups = append(tracedSetups, st)
	}

	// The untraced set-up samples are spread over the run, a share before
	// each round, so that their median is not that of a single moment of
	// the host.
	var setups []setupTimes
	sampleUpTo := func(n int) error {
		for len(setups) < n {
			st, err := setupSample(b, nil)
			if err != nil {
				return fmt.Errorf("%s: setup: %w", def.name, err)
			}
			setups = append(setups, st)
		}
		return nil
	}
	var plain, traced []roundResult
	var best, bestTraced fastest
	var failures []string
	budget := time.Duration(opts.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		due := setupReps
		if budget > 0 {
			due = min(setupReps, 1+int(setupReps*time.Since(start)/budget))
		}
		if err := sampleUpTo(due); err != nil {
			return report{}, err
		}
		enough := len(plain) > 0 && (tr == nil || len(traced) > 0)
		if (enough && time.Since(start) >= budget) || len(failures) > 0 {
			break
		}
		var rt *tracer
		if tr != nil && i%2 == 1 {
			rt = tr
		}
		runtime.GC()
		s, _, err := b.setup(rt)
		if err != nil {
			return report{}, fmt.Errorf("%s: setup: %w", def.name, err)
		}
		r, err := b.measure(s, rt)
		if err != nil {
			failures = append(failures, err.Error())
		}
		// The round's chunks live in buffers the next round reuses, so
		// only their summaries are kept.
		if rt == nil {
			best.add(r)
			plain = append(plain, r.summarize())
		} else {
			bestTraced.add(r)
			traced = append(traced, r.summarize())
		}
	}
	if err := sampleUpTo(setupReps); err != nil {
		return report{}, err
	}
	measured := time.Since(start)

	rep := report{digest: plain[0].digest, metrics: map[string]float64{}}
	if len(traced) > 0 {
		rep.tracedDigest = traced[0].digest
	}
	// A wrong digest fails every operation of the run; a conservation
	// failure fails the operations it left unconsumed.
	mismatch := false
	for _, r := range append(append([]roundResult(nil), plain...), traced...) {
		rep.attempted += r.attempted
		rep.failed += r.failed
		if r.digest != rep.digest {
			mismatch = true
			failures = append(failures, fmt.Sprintf("round digests differ: %s and %s", rep.digest, r.digest))
		}
	}
	want, stored := opts.expected[def.name][opts.seed]
	if stored && want != rep.digest {
		mismatch = true
		failures = append(failures, fmt.Sprintf("digest %s, stored expectation %s", rep.digest, want))
	}
	if mismatch {
		rep.failed = rep.attempted
	}
	rep.correct = len(failures) == 0 && rep.failed == 0

	m := rep.metrics
	var rawChunks, rawWalls, probes, heaps []float64
	var allocs, cycles float64
	for _, r := range plain {
		rawChunks = append(rawChunks, r.rawNSPerCycle)
		rawWalls = append(rawWalls, r.rawWall)
		probes = append(probes, r.probeNS)
		heaps = append(heaps, float64(r.heapBytes)/(1<<20))
		allocs += float64(r.allocs)
		cycles += float64(r.cycles)
	}
	first := plain[0]
	chunks := perCycle(best.window)
	m["ns_per_cycle"] = median(chunks)
	m["wall_s"] = phaseSeconds(best.window, best.drain)
	setupS := seconds(setups, func(st setupTimes) time.Duration { return st.total })
	m["setup_s"] = median(scaleSetups(setupS, setups))
	m["live_heap_mb"] = median(heaps)
	m["allocs_per_cycle"] = allocs / cycles
	m["sim_latency_p50_cycles"] = float64(first.p50)
	m["sim_latency_p99_cycles"] = float64(first.p99)
	m["sim_throughput"] = first.throughput
	m["sim_finish_cycles"] = float64(first.finish)
	if tr != nil && len(traced) > 0 {
		addLayerMetrics(m, tr, traced, bestTraced, tracedSetups)
	}

	status := "no stored expectation for this seed"
	if stored && want == rep.digest {
		status = "matches the stored expectation"
	} else if stored {
		status = "stored expectation " + want
	}
	rep.notes = append(rep.notes,
		fmt.Sprintf("workload %s seed %d: prepared in %.3fs, %d untraced and %d traced rounds in %.3fs",
			def.name, opts.seed, prepare.Seconds(), len(plain), len(traced), measured.Seconds()),
		fmt.Sprintf("digest %s (%s)", rep.digest, status),
		fmt.Sprintf("host speed: median probe of each round, ns (reference %d): %s", probeRefNS, formatList(probes, "%.0f")),
		fmt.Sprintf("ns_per_cycle over %d chunks of %d cycles, fastest of %d rounds: p10 %.0f  p50 %.0f  p90 %.0f  p99 %.0f",
			len(chunks), chunkCycles, len(plain), quantile(chunks, 0.10), quantile(chunks, 0.50), quantile(chunks, 0.90), quantile(chunks, 0.99)),
		fmt.Sprintf("unscaled ns_per_cycle, median of each round's chunks: %s", formatList(rawChunks, "%.0f")),
		fmt.Sprintf("unscaled wall_s of each round: %s", formatList(rawWalls, "%.4f")),
		fmt.Sprintf("unscaled setup_s over %d samples: p10 %.6f  p50 %.6f  p90 %.6f",
			len(setups), quantile(setupS, 0.10), quantile(setupS, 0.50), quantile(setupS, 0.90)),
		fmt.Sprintf("operations: %d attempted, %d failed", rep.attempted, rep.failed))
	for _, f := range failures {
		rep.notes = append(rep.notes, "FAILED: "+f)
	}
	return rep, nil
}

// addLayerMetrics derives the per-layer metrics from the traced rounds.
func addLayerMetrics(m map[string]float64, tr *tracer, traced []roundResult, best fastest, setups []setupTimes) {
	r := traced[0]
	m["router.ns_per_cycle"] = tr.layerNS(tr.routerNS, tr.sampledSteps)
	m["router.ns_per_step"] = ratio(m["router.ns_per_cycle"]*float64(tr.sampledCycles), float64(tr.sampledSteps))
	m["router.steps_per_cycle"] = ratio(float64(tr.steps), float64(tr.cycles))
	m["router.sa_grant_ratio"] = ratio(float64(r.counts.saGrants), float64(r.counts.saRequests))
	m["core.detect_ns_per_cycle"] = tr.layerNS(tr.detectNS, tr.detectSpans)
	m["core.protocol_ns_per_cycle"] = tr.layerNS(tr.protocolNS, tr.protocolSpans)
	m["core.flit_hook_ns_per_cycle"] = tr.layerNS(tr.flitNS, tr.flitSpans)
	m["core.upward_packets"] = float64(r.counts.upward)
	m["core.popups_completed"] = float64(r.counts.popupsCompleted)
	m["core.popups_cancelled"] = float64(r.counts.popupsCancelled)
	m["core.popup_useful_ratio"] = ratio(float64(r.counts.popupsCompleted), float64(r.counts.upward))
	m["network.self_ns_per_cycle"] = tr.selfNS()
	m["network.ejected_flits_per_cycle"] = ratio(float64(r.counts.ejectedFlits), float64(r.phaseCycles))
	// A workload drives the network from one of the two injection layers;
	// the other was never called and reads 0.
	tickSpans := func(ns int64) int64 {
		if ns == 0 {
			return 0
		}
		return tr.sampledCycles
	}
	m["traffic.tick_ns_per_cycle"] = tr.layerNS(tr.trafficNS, tickSpans(tr.trafficNS))
	m["workload.tick_ns_per_cycle"] = tr.layerNS(tr.workloadNS, tickSpans(tr.workloadNS))
	m["workload.messages_delivered"] = float64(r.messages)
	m["topology.build_s"] = median(seconds(setups, func(st setupTimes) time.Duration { return st.build }))
	m["network.new_s"] = median(seconds(setups, func(st setupTimes) time.Duration { return st.new }))
	m["snap.restore_s"] = median(seconds(setups, func(st setupTimes) time.Duration { return st.restore }))
	m["snap.bytes"] = float64(setups[0].restoredBytes)
	m["trace.overhead_pct"] = (median(perCycle(best.window))/m["ns_per_cycle"] - 1) * 100
}

// fastest holds a run's measured phase at its fastest, at the reference
// speed. Every round of a run simulates the same cycles, so the rounds'
// i-th chunks are the same work, and the i-th chunk kept is the one of
// them with the least scaled time. The slower ones are those the host
// disturbed more.
type fastest struct{ window, drain []chunk }

// add folds a round's chunks in.
func (f *fastest) add(r roundResult) {
	f.window = faster(f.window, r.window)
	f.drain = faster(f.drain, r.drain)
}

func faster(best, round []chunk) []chunk {
	for i, c := range scaled(round) {
		if i == len(best) {
			best = append(best, c)
		} else if c.ns < best[i].ns {
			best[i] = c
		}
	}
	return best
}

// perCycle returns the host ns per simulated cycle of each chunk.
func perCycle(chunks []chunk) []float64 {
	out := make([]float64, len(chunks))
	for i, c := range chunks {
		out[i] = c.ns / float64(c.cycles)
	}
	return out
}

// phaseSeconds returns the host time of a measured phase, window and
// drain, as the sum of its chunks' times.
func phaseSeconds(window, drain []chunk) float64 {
	var sum float64
	for _, part := range [][]chunk{window, drain} {
		for _, c := range part {
			sum += c.ns
		}
	}
	return sum / 1e9
}

// scaleSetups returns the set-up samples secs at the reference speed,
// each scaled by the median of the probes around it.
func scaleSetups(secs []float64, setups []setupTimes) []float64 {
	probes := make([]float64, len(setups))
	for i, st := range setups {
		probes[i] = st.probeNS
	}
	out := make([]float64, len(secs))
	for i, s := range speeds(probes) {
		out[i] = secs[i] * speedScale(s)
	}
	return out
}

// setupSample times back-to-back set-ups after a forced GC and returns
// their mean, with a probe run after them; the systems built are dropped.
// A single set-up of a small system takes under a millisecond and varies
// by half from one to the next, so one sample averages setupBatch set-ups
// or more, until setupSampleTime has passed. The collector is held off
// while they run, so a sample is the set-up's own work: whether a
// collection, and the page faults of the memory it returns, land inside a
// sample depends on the heap the process happens to hold, and on some runs
// it doubled every sample.
func setupSample(b bench, tr *tracer) (setupTimes, error) {
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var sum setupTimes
	n := 0
	for ; n < setupBatch || sum.total < setupSampleTime; n++ {
		_, st, err := b.setup(tr)
		if err != nil {
			return sum, err
		}
		sum.total += st.total
		sum.build += st.build
		sum.new += st.new
		sum.restore += st.restore
		sum.restoredBytes = st.restoredBytes
	}
	sum.probeNS = probe()
	sum.total /= time.Duration(n)
	sum.build /= time.Duration(n)
	sum.new /= time.Duration(n)
	sum.restore /= time.Duration(n)
	return sum, nil
}

// seconds picks one duration of each set-up, in seconds.
func seconds(setups []setupTimes, pick func(setupTimes) time.Duration) []float64 {
	out := make([]float64, len(setups))
	for i, st := range setups {
		out[i] = pick(st).Seconds()
	}
	return out
}

// ratio is a/b, or 0 when b is 0 (a layer or counter the workload does not
// exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile returns the q-quantile of v by linear interpolation between
// order statistics, or 0 for an empty slice.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func formatList(v []float64, format string) string {
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
