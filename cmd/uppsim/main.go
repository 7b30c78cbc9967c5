// Command uppsim runs a single chiplet-NoC simulation and prints its
// statistics — the quick way to poke at one configuration.
//
// Examples:
//
//	uppsim -scheme upp -rate 0.05 -pattern uniform_random
//	uppsim -scheme composable -vcs 4 -pattern transpose -cycles 50000
//	uppsim -scheme upp -faults 10 -rate 0.03
//	uppsim -scheme upp -fault-plan "flaps=4,drop=0.2" -rate 0.05
//	uppsim -scheme upp -fault-plan "kill=3@5000,kill=9@5000" -rate 0.03
//
// Persistent events in a fault plan (kill/add/killchiplet, see
// EXPERIMENTS.md) automatically attach the reconfiguration engine
// (internal/reconfig) instead of the plain injector and force up*/down*
// routing so the tables can be rebuilt mid-run (DESIGN.md §15).
//
//	uppsim -scheme none -rate 0.10       # watch a deadlock wedge the network
//	uppsim -scale large -rate 0.01       # 2048-router scale-out preset
//	uppsim -scale huge -rate 0.005 -cycles 2000
//
// Closed-loop collective workloads (see EXPERIMENTS.md for the spec
// syntax) replace the rate-driven generator; a run can be recorded to a
// binary trace and replayed open-loop:
//
//	uppsim -scheme upp -workload ring_allreduce
//	uppsim -scheme upp -workload "training_step:gap=500,iters=4"
//	uppsim -scheme upp -workload all_to_all -record a2a.trace
//	uppsim -scheme upp -replay a2a.trace
//
// A rate-driven run can be checkpointed mid-flight and resumed
// bit-identically; the checkpoint embeds its spec, so -restore needs no
// other flags (DESIGN.md §14):
//
//	uppsim -scheme upp -rate 0.05 -snapshot run.upwr -at 5000
//	uppsim -restore run.upwr
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

func main() {
	var (
		schemeName = flag.String("scheme", "upp", "upp | composable | remote_control | none")
		patName    = flag.String("pattern", "uniform_random", "uniform_random | bit_complement | bit_rotation | transpose")
		rate       = flag.Float64("rate", 0.03, "offered load, flits/cycle/node")
		vcs        = flag.Int("vcs", 1, "VCs per virtual network (1 or 4)")
		warmup     = flag.Int("warmup", 10000, "warmup cycles")
		cycles     = flag.Int("cycles", 100000, "measured cycles")
		faults     = flag.Int("faults", 0, "faulty links (forces up*/down* routing)")
		faultPlan  = flag.String("fault-plan", os.Getenv("UPP_FAULTS"), "runtime fault-injection spec, e.g. \"flaps=4,drop=0.2\" (default $UPP_FAULTS; see EXPERIMENTS.md)")
		large      = flag.Bool("large", false, "use the 128-core system (fig. 9)")
		boundaries = flag.Int("boundaries", 4, "boundary routers per chiplet")
		seed       = flag.Uint64("seed", 1, "simulation seed")
		trace      = flag.Int("trace", 0, "print the first N simulator events (0 = off)")
		adaptive   = flag.Bool("adaptive", false, "minimal-adaptive odd-even local routing")
		vct        = flag.Bool("vct", false, "virtual cut-through flow control")
		asJSON     = flag.Bool("json", false, "emit the result as JSON")
		wl         = flag.String("workload", "", "closed-loop collective workload spec, e.g. \"ring_allreduce\" or \"training_step:gap=500,iters=4\" (replaces -pattern/-rate)")
		maxCycles  = flag.Int("max-cycles", 400000, "workload completion horizon")
		record     = flag.String("record", "", "with -workload: write the run's binary message trace to this file")
		replay     = flag.String("replay", "", "replay a recorded trace open-loop instead of running a workload")
		routerArch = flag.String("router", "", "router microarchitecture: iq | oq | voq (default $UPP_ROUTER, then iq)")
		scale      = flag.String("scale", "", "scale-out preset: small (512 routers) | large (2048) | huge (8192); replaces -large/-boundaries")
		snapshot   = flag.String("snapshot", "", "write a checkpoint of the run's state to this file when it reaches -at, then continue")
		snapAt     = flag.Int64("at", 0, "with -snapshot: absolute cycle to checkpoint at (warmup starts the timeline at 0)")
		restore    = flag.String("restore", "", "resume a checkpoint written by -snapshot and run it to its schedule's end")
	)
	flag.Parse()

	sysCfg := topology.BaselineConfig()
	if *large {
		sysCfg = topology.LargeConfig()
	}
	sysCfg.BoundaryPerChiplet = *boundaries

	var scaleCfg *topology.ScaleConfig
	if *scale != "" {
		found := false
		for _, sys := range experiments.ScaleSystems() {
			if sys.Label == *scale {
				sc := sys.Config
				scaleCfg = &sc
				found = true
			}
		}
		if !found {
			fatal(fmt.Errorf("unknown -scale preset %q (want small, large or huge)", *scale))
		}
		if *replay != "" || *wl != "" {
			fatal(fmt.Errorf("-scale does not combine with -replay/-workload"))
		}
	}

	if (*snapshot != "" || *restore != "") && (*wl != "" || *replay != "") {
		fatal(fmt.Errorf("-snapshot/-restore checkpoint rate-driven runs, not -workload/-replay"))
	}
	if *restore != "" {
		if *snapshot != "" {
			fatal(fmt.Errorf("-restore does not combine with -snapshot"))
		}
		data, err := os.ReadFile(*restore)
		if err != nil {
			fatal(err)
		}
		pt, spec, err := experiments.RunRestored(data)
		if err != nil {
			fatal(err)
		}
		printPoint(string(spec.Scheme), spec.Pattern.Name(), pt, *asJSON)
		return
	}

	if *replay != "" {
		runReplay(sysCfg, *schemeName, *routerArch, *vcs, *seed, *maxCycles, *replay)
		return
	}
	if *wl != "" {
		runWorkload(sysCfg, *schemeName, *routerArch, *vcs, *seed, *maxCycles, *wl, *record, *asJSON)
		return
	}

	pat, err := traffic.PatternByName(*patName)
	if err != nil {
		fatal(err)
	}
	spec := experiments.RunSpec{
		Topo:       sysCfg,
		Scale:      scaleCfg,
		Scheme:     experiments.SchemeName(*schemeName),
		VCsPerVNet: *vcs,
		Pattern:    pat,
		Rate:       *rate,
		Seed:       *seed,
		Dur:        experiments.Durations{Warmup: *warmup, Measure: *cycles},
		Faults:     *faults,
		FaultSeed:  *seed * 31,
		FaultPlan:  *faultPlan,
		RouterArch: *routerArch,
	}
	spec.TraceLimit = *trace
	spec.Adaptive = *adaptive
	spec.VCT = *vct
	var pt experiments.Point
	if *snapshot != "" {
		f, cerr := os.Create(*snapshot)
		if cerr != nil {
			fatal(cerr)
		}
		pt, err = experiments.RunCheckpointed(spec, *snapAt, f)
		if cerr := f.Close(); err == nil && cerr != nil {
			err = cerr
		}
		if err == nil {
			fmt.Fprintf(os.Stderr, "uppsim: checkpoint at cycle %d written to %s\n", *snapAt, *snapshot)
		}
	} else {
		pt, err = experiments.Run(spec)
	}
	if err != nil {
		fatal(err)
	}
	printPoint(*schemeName, *patName, pt, *asJSON)
}

// printPoint renders a rate-driven run's outcome, as JSON or the aligned
// text block.
func printPoint(schemeName, patName string, pt experiments.Point, asJSON bool) {
	if asJSON {
		out, err := json.MarshalIndent(struct {
			Scheme  string
			Pattern string
			experiments.Point
		}{schemeName, patName, pt}, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Printf("scheme            %s\n", schemeName)
	fmt.Printf("pattern           %s\n", patName)
	fmt.Printf("offered load      %.4f flits/cycle/node\n", pt.Rate)
	fmt.Printf("accepted load     %.4f flits/cycle/node\n", pt.Throughput)
	fmt.Printf("avg latency       %.2f cycles (network %.2f + queueing %.2f)\n", pt.TotalLat, pt.NetLat, pt.QueueLat)
	fmt.Printf("p50/p99/max       %d / %d / %d cycles\n", pt.LatP50, pt.LatP99, pt.LatMax)
	fmt.Printf("packets measured  %d\n", pt.Packets)
	fmt.Printf("saturated         %v\n", pt.Saturated)
	if schemeName == "upp" {
		fmt.Printf("upward packets    %d\n", pt.Upward)
		fmt.Printf("popups completed  %d\n", pt.Popups)
		fmt.Printf("signal hops       %d\n", pt.Signals)
	}
}

// runWorkload drives a closed-loop collective to completion (or the
// horizon) and prints completion time plus scheme counters.
func runWorkload(sysCfg topology.SystemConfig, schemeName, routerArch string, vcs int, seed uint64, maxCycles int, wl, record string, asJSON bool) {
	spec := experiments.WorkloadSpec{
		Topo:       sysCfg,
		Scheme:     experiments.SchemeName(schemeName),
		Workload:   wl,
		VCsPerVNet: vcs,
		Seed:       seed,
		MaxCycles:  maxCycles,
		RouterArch: routerArch,
	}
	var rec *workload.TraceRecorder
	if record != "" {
		topo, err := topology.Build(sysCfg)
		if err != nil {
			fatal(err)
		}
		rec = workload.NewTraceRecorder(len(topo.Cores()))
		spec.Recorder = rec
	}
	pt, err := experiments.RunWorkload(spec)
	if err != nil {
		fatal(err)
	}
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			fatal(err)
		}
		if err := rec.Write(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "uppsim: recorded %d messages to %s\n", len(rec.Trace().Records), record)
	}
	if asJSON {
		out, err := json.MarshalIndent(pt, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	fmt.Printf("scheme            %s\n", schemeName)
	fmt.Printf("workload          %s\n", wl)
	fmt.Printf("completed         %v (%d/%d ops)\n", pt.Completed, pt.OpsFired, pt.OpsTotal)
	if pt.Completed {
		fmt.Printf("finish cycle      %d\n", pt.FinishCycle)
	}
	fmt.Printf("messages          %d\n", pt.Messages)
	fmt.Printf("avg latency       %.2f cycles (network %.2f + queueing %.2f)\n", pt.TotalLat, pt.NetLat, pt.QueueLat)
	if schemeName == "upp" {
		fmt.Printf("upward packets    %d\n", pt.Upward)
		fmt.Printf("popups completed  %d\n", pt.Popups)
		fmt.Printf("signal hops       %d\n", pt.Signals)
	}
	if schemeName == "remote_control" {
		fmt.Printf("injection holds   %d\n", pt.InjectionHolds)
	}
}

// runReplay re-injects a recorded trace open-loop until every record is
// in flight or delivered, then drains and prints the final statistics.
func runReplay(sysCfg topology.SystemConfig, schemeName, routerArch string, vcs int, seed uint64, maxCycles int, path string) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	trace, err := workload.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	topo, err := topology.Build(sysCfg)
	if err != nil {
		fatal(err)
	}
	scheme, err := experiments.MakeScheme(experiments.SchemeName(schemeName), topo)
	if err != nil {
		fatal(err)
	}
	cfg := network.DefaultConfig()
	if vcs > 0 {
		cfg.Router.VCsPerVNet = vcs
	}
	cfg.Seed = seed + 1
	cfg.RouterArch = routerArch
	n, err := network.New(topo, cfg, scheme)
	if err != nil {
		fatal(err)
	}
	rp, err := workload.NewReplayer(n, trace)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < maxCycles && !rp.Done(); i++ {
		rp.Tick(n.Cycle())
		n.Step()
	}
	if !rp.Done() {
		fatal(fmt.Errorf("replay of %s still injecting after %d cycles", path, maxCycles))
	}
	if err := n.Drain(maxCycles, 5000); err != nil {
		fatal(fmt.Errorf("replay drain: %w", err))
	}
	fmt.Printf("scheme            %s\n", schemeName)
	fmt.Printf("trace             %s (%d ranks, %d records)\n", path, trace.Ranks, len(trace.Records))
	fmt.Printf("final cycle       %d\n", n.Cycle())
	fmt.Printf("packets born      %d\n", n.Stats.BornPackets)
	fmt.Printf("packets consumed  %d\n", n.Stats.ConsumedPackets)
	fmt.Printf("avg latency       %.2f cycles (network %.2f + queueing %.2f)\n",
		n.AvgTotalLatency(), n.AvgNetLatency(), n.AvgQueueLatency())
	if schemeName == "upp" {
		fmt.Printf("upward packets    %d\n", n.Stats.UpwardPackets)
		fmt.Printf("popups completed  %d\n", n.Stats.PopupsCompleted)
		fmt.Printf("signal hops       %d\n", n.Stats.SignalsSent)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "uppsim: %v\n", err)
	os.Exit(1)
}
