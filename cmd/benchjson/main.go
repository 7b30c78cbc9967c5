// Command benchjson runs the cycle-kernel benchmarks (the same
// measurement as the BenchmarkKernel* benchmarks in bench_test.go) and
// writes the results as JSON, so the repository's perf trajectory is
// recorded in a diffable artifact. Run via `make bench-json`.
//
// With -alloc it instead measures the memory axis: allocations and
// bytes per simulated cycle with packet pooling on and off, plus GC
// counts over a fixed run, written as BENCH_alloc.json.
//
// With -router it measures the three router microarchitectures
// (iq/oq/voq, equal buffer budget) under the active-set kernel at every
// load, written as BENCH_router.json — the cost axis of the Microarch
// interface and its variants.
//
// With -scale it measures the active-set kernel on the small/large/huge
// scale-out systems, written as BENCH_scale.json — the regime where the
// per-cycle cost grows with the awake set rather than the router count.
//
// With -cache it measures the result cache's wall-clock effect on a
// fig7-quick subset (the three compared schemes, uniform random, 1 VC):
// the same sweep run cold into a fresh cache directory, again as pure
// cache hits, and a third time warm-started (results evicted, post-warmup
// checkpoints kept), written as BENCH_cache.json. ns_per_cycle here is
// wall-clock over the cycles the sweep represents, so the three rows
// share a denominator and the speedup ratios are wall-clock ratios.
//
// With -reconfig it measures dynamic reconfiguration: the simulated
// wall-clock of a two-link kill-and-migrate transition (Begin→Finish
// cycles) under the drainless and epoch-fenced protocols at three
// offered loads, plus the real wall-clock cost of the soak, written as
// BENCH_reconfig.json. The transition numbers are deterministic
// simulation outputs — only ns_per_cycle varies across machines.
//
// With -compare old.json new.json it diffs two BENCH_*.json files
// produced by any of the modes above, prints per-measurement
// ns_per_cycle deltas, and exits non-zero when any shared measurement
// regressed beyond -tolerance (default 10%). Run via
// `make bench-compare`; CI runs it warn-only because shared runners are
// noisy.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"uppnoc/internal/experiments"
	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/reconfig"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// load pairs a label with the offered rate the benchmark injects at.
type load struct {
	Label string
	Rate  float64
}

var loads = []load{
	{"low", 0.02},
	{"mid", 0.05},
	{"saturation", 0.20},
}

type measurement struct {
	Load   string  `json:"load"`
	Rate   float64 `json:"rate"`
	Kernel string  `json:"kernel"`
	Router string  `json:"router,omitempty"`
	// Topology and NumRouters identify the simulated system ("baseline"
	// for the 60-node paper system, or a scale preset), so measurements
	// from different system sizes are never silently compared.
	Topology   string  `json:"topology"`
	NumRouters int     `json:"num_routers"`
	Cycles     int     `json:"cycles"`
	NsPerCycle float64 `json:"ns_per_cycle"`
}

// allocMeasurement is one row of the -alloc report: the per-cycle
// allocation profile of the benchmark loop plus GC pressure over a
// fixed-length run, with pooling on or off.
type allocMeasurement struct {
	Load           string  `json:"load"`
	Rate           float64 `json:"rate"`
	Pooling        bool    `json:"pooling"`
	Cycles         int     `json:"cycles"`
	NsPerCycle     float64 `json:"ns_per_cycle"`
	AllocsPerCycle float64 `json:"allocs_per_cycle"`
	BytesPerCycle  float64 `json:"bytes_per_cycle"`
	// GC pressure over a separate fixed run of FixedCycles cycles,
	// measured with runtime.ReadMemStats deltas.
	FixedCycles int    `json:"fixed_cycles"`
	GCCycles    uint32 `json:"gc_cycles"`
	Mallocs     uint64 `json:"mallocs"`
	TotalAlloc  uint64 `json:"total_alloc_bytes"`
	PoolReuses  uint64 `json:"pool_reuses"`
}

type allocReport struct {
	Date         string             `json:"date"`
	GoVersion    string             `json:"go_version"`
	GOOS         string             `json:"goos"`
	GOARCH       string             `json:"goarch"`
	NumCPU       int                `json:"num_cpu"`
	Measurements []allocMeasurement `json:"measurements"`
	// AllocReduction maps load label to unpooled/pooled mallocs ratio over
	// the fixed run: >1 means pooling removes allocations.
	AllocReduction map[string]float64 `json:"malloc_reduction_pooled"`
}

type report struct {
	Date         string        `json:"date"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	NumCPU       int           `json:"num_cpu"`
	Measurements []measurement `json:"measurements"`
	// Speedup maps load label to naive/active ns-per-cycle ratio: >1 means
	// the active-set kernel is faster.
	Speedup map[string]float64 `json:"speedup_active_vs_naive"`
}

func measure(kernel string, rate float64) (measurement, error) {
	return measureArch(kernel, "", rate)
}

// baselineRouters caches the baseline system's node count for the
// topology/num_routers columns of the non-scale modes.
var baselineRouters = sync.OnceValue(func() int {
	return len(topology.MustBuild(topology.BaselineConfig()).Nodes)
})

func measureArch(kernel, arch string, rate float64) (measurement, error) {
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		kb, err := experiments.NewKernelBenchArch(kernel, arch, rate)
		if err != nil {
			buildErr = err
			b.Fatal(err)
		}
		b.ResetTimer()
		kb.Run(b.N)
	})
	if buildErr != nil {
		return measurement{}, buildErr
	}
	return measurement{
		Kernel:     kernel,
		Router:     arch,
		Rate:       rate,
		Topology:   "baseline",
		NumRouters: baselineRouters(),
		Cycles:     r.N,
		NsPerCycle: float64(r.T.Nanoseconds()) / float64(r.N),
	}, nil
}

// measureScale benchmarks one scale system under the active-set kernel —
// a row of BENCH_scale.json.
func measureScale(sys experiments.ScaleSystem, rate float64) (measurement, error) {
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		kb, err := experiments.NewScaleBench(network.KernelActive, sys.Config, rate)
		if err != nil {
			buildErr = err
			b.Fatal(err)
		}
		b.ResetTimer()
		kb.Run(b.N)
	})
	if buildErr != nil {
		return measurement{}, buildErr
	}
	return measurement{
		Kernel:     network.KernelActive,
		Rate:       rate,
		Topology:   sys.Label,
		NumRouters: sys.Config.NumRouters(),
		Cycles:     r.N,
		NsPerCycle: float64(r.T.Nanoseconds()) / float64(r.N),
	}, nil
}

// routerReport is the -router artifact: every router microarchitecture
// at every load under the active-set kernel. Overhead maps load label to
// each variant's ns-per-cycle relative to iq (>1 means the variant costs
// more per simulated cycle).
type routerReport struct {
	Date         string                        `json:"date"`
	GoVersion    string                        `json:"go_version"`
	GOOS         string                        `json:"goos"`
	GOARCH       string                        `json:"goarch"`
	NumCPU       int                           `json:"num_cpu"`
	Measurements []measurement                 `json:"measurements"`
	Overhead     map[string]map[string]float64 `json:"overhead_vs_iq"`
}

func runRouter(out string) {
	rep := routerReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Overhead:  map[string]map[string]float64{},
	}
	perLoad := map[string]map[string]float64{}
	for _, l := range loads {
		perLoad[l.Label] = map[string]float64{}
		for _, arch := range experiments.RouterArchs() {
			fmt.Fprintf(os.Stderr, "benchjson: %s load (rate %.2f), %s router...\n", l.Label, l.Rate, arch)
			m, err := measureArch(network.KernelActive, arch, l.Rate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			m.Load = l.Label
			rep.Measurements = append(rep.Measurements, m)
			perLoad[l.Label][arch] = m.NsPerCycle
		}
		rep.Overhead[l.Label] = map[string]float64{}
		for _, arch := range experiments.RouterArchs() {
			rep.Overhead[l.Label][arch] = perLoad[l.Label][arch] / perLoad[l.Label]["iq"]
		}
	}
	writeJSON(out, rep)
	for _, l := range loads {
		fmt.Fprintf(os.Stderr, "  %-10s iq %8.0f ns/cycle, oq %8.0f ns/cycle (%.2fx), voq %8.0f ns/cycle (%.2fx)\n",
			l.Label, perLoad[l.Label]["iq"],
			perLoad[l.Label]["oq"], rep.Overhead[l.Label]["oq"],
			perLoad[l.Label]["voq"], rep.Overhead[l.Label]["voq"])
	}
}

// measureAlloc benchmarks per-cycle allocation behavior with pooling on
// or off, then runs a fixed window under ReadMemStats bracketing so GC
// counts are comparable across machines regardless of how testing.B
// chose N.
func measureAlloc(rate float64, disablePool bool) (allocMeasurement, error) {
	const fixedCycles = 20000
	var buildErr error
	r := testing.Benchmark(func(b *testing.B) {
		kb, err := experiments.NewKernelBenchPool(network.KernelActive, rate, disablePool)
		if err != nil {
			buildErr = err
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		kb.Run(b.N)
	})
	if buildErr != nil {
		return allocMeasurement{}, buildErr
	}
	kb, err := experiments.NewKernelBenchPool(network.KernelActive, rate, disablePool)
	if err != nil {
		return allocMeasurement{}, err
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kb.Run(fixedCycles)
	runtime.ReadMemStats(&after)
	return allocMeasurement{
		Rate:           rate,
		Pooling:        !disablePool,
		Cycles:         r.N,
		NsPerCycle:     float64(r.T.Nanoseconds()) / float64(r.N),
		AllocsPerCycle: float64(r.MemAllocs) / float64(r.N),
		BytesPerCycle:  float64(r.MemBytes) / float64(r.N),
		FixedCycles:    fixedCycles,
		GCCycles:       after.NumGC - before.NumGC,
		Mallocs:        after.Mallocs - before.Mallocs,
		TotalAlloc:     after.TotalAlloc - before.TotalAlloc,
		PoolReuses:     kb.Network().PacketPool().Stats.Reuses,
	}, nil
}

func runAlloc(out string) {
	rep := allocReport{
		Date:           time.Now().UTC().Format(time.RFC3339),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		NumCPU:         runtime.NumCPU(),
		AllocReduction: map[string]float64{},
	}
	mallocs := map[string]map[bool]uint64{}
	for _, l := range loads {
		mallocs[l.Label] = map[bool]uint64{}
		for _, disablePool := range []bool{true, false} {
			fmt.Fprintf(os.Stderr, "benchjson: %s load (rate %.2f), pooling=%v...\n", l.Label, l.Rate, !disablePool)
			m, err := measureAlloc(l.Rate, disablePool)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			m.Load = l.Label
			rep.Measurements = append(rep.Measurements, m)
			mallocs[l.Label][!disablePool] = m.Mallocs
		}
		if pooled := mallocs[l.Label][true]; pooled > 0 {
			rep.AllocReduction[l.Label] = float64(mallocs[l.Label][false]) / float64(pooled)
		}
	}
	writeJSON(out, rep)
	for _, m := range rep.Measurements {
		fmt.Fprintf(os.Stderr, "  %-10s pooling=%-5v %8.2f allocs/cycle %10.1f B/cycle, %3d GCs / %d cycles\n",
			m.Load, m.Pooling, m.AllocsPerCycle, m.BytesPerCycle, m.GCCycles, m.FixedCycles)
	}
}

// scaleReport is the -scale artifact: active-set kernel ns/cycle on each
// scale system at the mid load.
type scaleReport struct {
	Date         string        `json:"date"`
	GoVersion    string        `json:"go_version"`
	GOOS         string        `json:"goos"`
	GOARCH       string        `json:"goarch"`
	NumCPU       int           `json:"num_cpu"`
	GOMAXPROCS   int           `json:"gomaxprocs"`
	Measurements []measurement `json:"measurements"`
}

// scaleRate is the offered load of the -scale measurements: just below
// the scale systems' uniform-random saturation (~0.015 accepted
// flits/cycle/node on the 2048-router preset, bisection-limited), so the
// awake set is large while steady state still exists — past saturation
// the injection queues grow without bound and ns/cycle drifts with the
// backlog.
const scaleRate = 0.01

func runScale(out string) {
	rep := scaleReport{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	for _, sys := range experiments.ScaleSystems() {
		fmt.Fprintf(os.Stderr, "benchjson: %s (%d routers), active kernel...\n", sys.Label, sys.Config.NumRouters())
		m, err := measureScale(sys, scaleRate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		m.Load = "mid"
		rep.Measurements = append(rep.Measurements, m)
		fmt.Fprintf(os.Stderr, "  %-6s active %9.0f ns/cycle\n", sys.Label, m.NsPerCycle)
	}
	writeJSON(out, rep)
}

// cacheReport is the -cache artifact: the wall-clock cost of one sweep
// executed cold, from the result cache, and warm-started. The three rows
// share one denominator (the simulated cycles the sweep represents), so
// Speedup's ratios are pure wall-clock ratios; cache_hit_vs_cold is the
// ISSUE's >=10x acceptance number.
type cacheReport struct {
	Date      string `json:"date"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// The sweep being measured: scheme x rate grid at these durations.
	Schemes      []string           `json:"schemes"`
	Pattern      string             `json:"pattern"`
	Warmup       int                `json:"warmup"`
	Measure      int                `json:"measure"`
	Points       int                `json:"points_per_phase"`
	Measurements []measurement      `json:"measurements"`
	Speedup      map[string]float64 `json:"speedup_vs_cold"`
}

func runCacheBench(out string) {
	dir, err := os.MkdirTemp("", "uppcache-*")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	defer os.RemoveAll(dir)
	os.Setenv("UPP_CACHE_DIR", dir)
	defer os.Unsetenv("UPP_CACHE_DIR")

	dur := experiments.QuickDurations()
	schemes := experiments.ComparedSchemes()
	rep := cacheReport{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Pattern:   traffic.UniformRandom{}.Name(),
		Warmup:    dur.Warmup,
		Measure:   dur.Measure,
		Speedup:   map[string]float64{},
	}
	for _, sch := range schemes {
		rep.Schemes = append(rep.Schemes, string(sch))
	}
	sweep := func() int {
		points := 0
		for _, sch := range schemes {
			spec := experiments.RunSpec{
				Topo:       topology.BaselineConfig(),
				Scheme:     sch,
				VCsPerVNet: 1,
				Pattern:    traffic.UniformRandom{},
				Seed:       11,
				Dur:        dur,
			}
			c, err := experiments.SweepRates(spec, experiments.DefaultRates(), string(sch))
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			points += len(c.Points)
		}
		return points
	}
	phase := func(label string) measurement {
		fmt.Fprintf(os.Stderr, "benchjson: %s sweep (%d schemes x rate grid)...\n", label, len(schemes))
		start := time.Now()
		points := sweep()
		wall := time.Since(start)
		rep.Points = points
		cycles := points * (dur.Warmup + dur.Measure)
		return measurement{
			Load:       label,
			Topology:   "baseline",
			NumRouters: baselineRouters(),
			Cycles:     cycles,
			NsPerCycle: float64(wall.Nanoseconds()) / float64(cycles),
		}
	}
	cold := phase("cold")
	hit := phase("cache_hit")
	// Evict the results but keep the warm/ checkpoints: the third phase
	// re-measures every point from its post-warmup snapshot.
	if err := os.RemoveAll(filepath.Join(dir, "results")); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	warm := phase("warm_start")
	rep.Measurements = []measurement{cold, hit, warm}
	rep.Speedup["cache_hit"] = cold.NsPerCycle / hit.NsPerCycle
	rep.Speedup["warm_start"] = cold.NsPerCycle / warm.NsPerCycle
	writeJSON(out, rep)
	hits, misses, warmHits, warmMisses := experiments.CacheCounters()
	fmt.Fprintf(os.Stderr, "  cold %8.0f ns/cycle, cache_hit %8.3f (%.0fx), warm_start %8.0f (%.2fx); counters: %d hits / %d misses, %d warm hits / %d warm misses\n",
		cold.NsPerCycle, hit.NsPerCycle, rep.Speedup["cache_hit"],
		warm.NsPerCycle, rep.Speedup["warm_start"],
		hits, misses, warmHits, warmMisses)
	if rep.Speedup["cache_hit"] < 10 {
		fmt.Fprintf(os.Stderr, "benchjson: WARNING: cache-hit speedup %.1fx below the 10x acceptance bar\n", rep.Speedup["cache_hit"])
	}
}

// reconfigMeasurement is one row of the -reconfig artifact: a two-link
// kill-and-migrate soak under one transition protocol at one offered
// load. Every field except ns_per_cycle is a deterministic simulation
// output (cycles, counters), so regenerating the artifact on another
// machine must reproduce them exactly.
type reconfigMeasurement struct {
	Load string  `json:"load"`
	Rate float64 `json:"rate"`
	Mode string  `json:"mode"`
	// Compatible is the CDG verdict on the old∪new union; the two-link
	// kill reroutes enough of the mesh that epoch fencing is expected.
	Compatible bool `json:"compatible"`
	// TransitionCycles is Begin→Finish: the simulated wall-clock of the
	// migration. CutLatencyCycles is Begin→Cut (fence-and-drain window).
	TransitionCycles int64  `json:"transition_cycles"`
	CutLatencyCycles int64  `json:"cut_latency_cycles"`
	RouteMigrations  uint64 `json:"route_migrations"`
	HeadsMigrated    uint64 `json:"heads_migrated"`
	HeldStreams      uint64 `json:"held_streams"`
	Popups           uint64 `json:"popups_completed"`
	FinalCycle       int64  `json:"final_cycle"`
	// NsPerCycle is host wall-clock over simulated cycles for the whole
	// soak (load + transition + drain) — the only machine-dependent field.
	NsPerCycle float64 `json:"ns_per_cycle"`
}

// reconfigReport is the -reconfig artifact. TransitionRatio maps load
// label to epoch/drainless transition-cycle ratio. Below 1 means the
// fenced protocol ends the mixed-epoch window sooner than drainless —
// the expected regime at high load, where continued injection congests
// the old epoch's drain; the fence pays for it in held_streams instead.
type reconfigReport struct {
	Date            string                `json:"date"`
	GoVersion       string                `json:"go_version"`
	GOOS            string                `json:"goos"`
	GOARCH          string                `json:"goarch"`
	NumCPU          int                   `json:"num_cpu"`
	KilledLinks     []int                 `json:"killed_links"`
	KillCycle       int64                 `json:"kill_cycle"`
	Measurements    []reconfigMeasurement `json:"measurements"`
	TransitionRatio map[string]float64    `json:"transition_cycles_epoch_over_drainless"`
}

// reconfigLoads keeps the soak below uniform-random saturation: past it
// the drain phase dominates wall-clock without changing the transition
// numbers.
var reconfigLoads = []load{
	{"low", 0.02},
	{"mid", 0.05},
	{"high", 0.10},
}

func runReconfigBench(out string) {
	links, err := experiments.KillableInterposerLinks(topology.BaselineConfig(), 2)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	const killCycle = 400
	plan := faults.Plan{Kills: []faults.LinkKill{
		{Link: links[0], Cycle: killCycle},
		{Link: links[1], Cycle: killCycle},
	}}
	rep := reconfigReport{
		Date:            time.Now().UTC().Format(time.RFC3339),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		KilledLinks:     links,
		KillCycle:       killCycle,
		TransitionRatio: map[string]float64{},
	}
	transition := map[string]map[string]int64{}
	for _, l := range reconfigLoads {
		transition[l.Label] = map[string]int64{}
		for _, mode := range []reconfig.Mode{reconfig.ModeDrainless, reconfig.ModeEpoch} {
			fmt.Fprintf(os.Stderr, "benchjson: %s load (rate %.2f), %s transition...\n", l.Label, l.Rate, mode)
			start := time.Now()
			o, err := experiments.RunReconfig(experiments.ReconfigSpec{
				Mode:       mode,
				Plan:       plan,
				Seed:       5,
				Rate:       l.Rate,
				LoadCycles: killCycle + 2000,
				DrainMax:   200000,
				StallLimit: 20000,
			})
			wall := time.Since(start)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			if !o.Quiesced {
				fmt.Fprintf(os.Stderr, "benchjson: reconfig soak stalled: %s\n", o.Stall)
				os.Exit(1)
			}
			tr := o.Transitions[0]
			m := reconfigMeasurement{
				Load:             l.Label,
				Rate:             l.Rate,
				Mode:             mode.String(),
				Compatible:       tr.Compatible,
				TransitionCycles: int64(tr.Finish - tr.Begin),
				CutLatencyCycles: int64(tr.Cut - tr.Begin),
				RouteMigrations:  o.Stats.RouteMigrations,
				HeadsMigrated:    o.Stats.HeadsMigrated,
				HeldStreams:      o.Stats.ReconfigHeldStreams,
				Popups:           o.Stats.PopupsCompleted,
				FinalCycle:       int64(o.FinalCycle),
				NsPerCycle:       float64(wall.Nanoseconds()) / float64(o.FinalCycle),
			}
			rep.Measurements = append(rep.Measurements, m)
			transition[l.Label][mode.String()] = m.TransitionCycles
		}
		if d := transition[l.Label][reconfig.ModeDrainless.String()]; d > 0 {
			rep.TransitionRatio[l.Label] = float64(transition[l.Label][reconfig.ModeEpoch.String()]) / float64(d)
		}
	}
	writeJSON(out, rep)
	for _, l := range reconfigLoads {
		fmt.Fprintf(os.Stderr, "  %-5s drainless %5d cycles, epoch %5d cycles (%.2fx)\n",
			l.Label, transition[l.Label]["drainless"], transition[l.Label]["epoch"], rep.TransitionRatio[l.Label])
	}
}

// compareMeasurement is the cross-mode subset of a measurement row used
// by -compare: every BENCH_*.json variant carries load and ns_per_cycle;
// kernel and pooling distinguish rows within a file when present.
type compareMeasurement struct {
	Load       string  `json:"load"`
	Kernel     string  `json:"kernel"`
	Router     string  `json:"router"`
	Topology   string  `json:"topology"`
	Pooling    *bool   `json:"pooling"`
	NsPerCycle float64 `json:"ns_per_cycle"`
}

// key identifies a measurement across artifacts. Files written before the
// topology axis existed carry no topology field; those rows are
// normalized to "baseline" (the only system they could measure), so an
// old artifact still lines up with a regenerated one instead of every row
// degenerating to a new/dropped pair. Axes a file doesn't use (router,
// pooling) are simply absent from its keys, so artifacts with
// different axis sets compare on the rows they share and report the rest
// as added/dropped rather than failing.
func (m compareMeasurement) key() string {
	k := m.Load
	if m.Kernel != "" {
		k += "/" + m.Kernel
	}
	if m.Router != "" {
		k += "/" + m.Router
	}
	if m.Topology != "" && m.Topology != "baseline" {
		k += "/" + m.Topology
	}
	if m.Pooling != nil {
		k += fmt.Sprintf("/pooling=%v", *m.Pooling)
	}
	return k
}

type compareFile struct {
	Date         string               `json:"date"`
	NumCPU       int                  `json:"num_cpu"`
	Measurements []compareMeasurement `json:"measurements"`
}

func loadCompareFile(path string) (compareFile, error) {
	var f compareFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Measurements) == 0 {
		return f, fmt.Errorf("%s: no measurements (is this a BENCH_*.json file?)", path)
	}
	return f, nil
}

// runCompare diffs two benchmark artifacts and returns the process exit
// code: 0 when no shared measurement's ns_per_cycle regressed beyond the
// tolerance, 1 otherwise. Rows present in only one file are reported but
// never fail the comparison — adding a kernel or load is not a
// regression.
func runCompare(oldPath, newPath string, tolerance float64) int {
	oldF, err := loadCompareFile(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	newF, err := loadCompareFile(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 2
	}
	if oldF.NumCPU != 0 && newF.NumCPU != 0 && oldF.NumCPU != newF.NumCPU {
		fmt.Printf("note: num_cpu differs (%d -> %d); deltas may reflect hardware, not code\n",
			oldF.NumCPU, newF.NumCPU)
	}
	oldRows := map[string]compareMeasurement{}
	for _, m := range oldF.Measurements {
		oldRows[m.key()] = m
	}
	fmt.Printf("%-34s %12s %12s %8s\n", "measurement", "old ns/cyc", "new ns/cyc", "delta")
	regressions := 0
	seen := map[string]bool{}
	for _, m := range newF.Measurements {
		k := m.key()
		seen[k] = true
		old, ok := oldRows[k]
		if !ok {
			fmt.Printf("%-34s %12s %12.0f %8s (new measurement)\n", k, "-", m.NsPerCycle, "-")
			continue
		}
		delta := (m.NsPerCycle - old.NsPerCycle) / old.NsPerCycle
		status := ""
		if delta > tolerance {
			status = "  REGRESSION"
			regressions++
		}
		fmt.Printf("%-34s %12.0f %12.0f %+7.1f%%%s\n", k, old.NsPerCycle, m.NsPerCycle, delta*100, status)
	}
	for _, m := range oldF.Measurements {
		if !seen[m.key()] {
			fmt.Printf("%-34s %12.0f %12s %8s (dropped measurement)\n", m.key(), m.NsPerCycle, "-", "-")
		}
	}
	if regressions > 0 {
		fmt.Printf("\n%d measurement(s) regressed beyond %.0f%% tolerance\n", regressions, tolerance*100)
		return 1
	}
	fmt.Printf("\nno ns_per_cycle regression beyond %.0f%% tolerance\n", tolerance*100)
	return 0
}

func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s\n", path)
}

func main() {
	alloc := flag.Bool("alloc", false, "measure allocations/GC (pooled vs unpooled) instead of kernel speed")
	routerMode := flag.Bool("router", false, "measure the three router microarchitectures (iq/oq/voq) instead of kernels")
	scaleMode := flag.Bool("scale", false, "measure the active-set kernel on the scale-out systems (small/large/huge)")
	cacheMode := flag.Bool("cache", false, "measure the result cache: one sweep cold vs cache-hit vs warm-started")
	reconfigMode := flag.Bool("reconfig", false, "measure dynamic reconfiguration: two-link kill-and-migrate transition cost, drainless vs epoch, three loads")
	compare := flag.Bool("compare", false, "diff two BENCH_*.json files: benchjson -compare old.json new.json")
	tolerance := flag.Float64("tolerance", 0.10, "with -compare, ns_per_cycle regression fraction that fails the diff")
	out := flag.String("out", "", "output JSON path (default BENCH_kernel.json, BENCH_alloc.json with -alloc, BENCH_router.json with -router, BENCH_scale.json with -scale, BENCH_cache.json with -cache)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: benchjson -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), *tolerance))
	}
	if *out == "" {
		switch {
		case *alloc:
			*out = "BENCH_alloc.json"
		case *routerMode:
			*out = "BENCH_router.json"
		case *scaleMode:
			*out = "BENCH_scale.json"
		case *cacheMode:
			*out = "BENCH_cache.json"
		case *reconfigMode:
			*out = "BENCH_reconfig.json"
		default:
			*out = "BENCH_kernel.json"
		}
	}
	if *alloc {
		runAlloc(*out)
		return
	}
	if *routerMode {
		runRouter(*out)
		return
	}
	if *scaleMode {
		runScale(*out)
		return
	}
	if *cacheMode {
		runCacheBench(*out)
		return
	}
	if *reconfigMode {
		runReconfigBench(*out)
		return
	}

	rep := report{
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Speedup:   map[string]float64{},
	}
	perLoad := map[string]map[string]float64{}
	for _, l := range loads {
		perLoad[l.Label] = map[string]float64{}
		for _, kernel := range []string{network.KernelActive, network.KernelNaive} {
			fmt.Fprintf(os.Stderr, "benchjson: %s load (rate %.2f), %s kernel...\n", l.Label, l.Rate, kernel)
			m, err := measure(kernel, l.Rate)
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
				os.Exit(1)
			}
			m.Load = l.Label
			rep.Measurements = append(rep.Measurements, m)
			perLoad[l.Label][kernel] = m.NsPerCycle
		}
		rep.Speedup[l.Label] = perLoad[l.Label][network.KernelNaive] / perLoad[l.Label][network.KernelActive]
	}
	writeJSON(*out, rep)
	for _, l := range loads {
		fmt.Fprintf(os.Stderr, "  %-10s active %8.0f ns/cycle, naive %8.0f ns/cycle (%.2fx)\n",
			l.Label, perLoad[l.Label][network.KernelActive], perLoad[l.Label][network.KernelNaive], rep.Speedup[l.Label])
	}
}
