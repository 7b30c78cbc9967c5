package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"uppnoc/internal/core"
	"uppnoc/internal/experiments"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
	"uppnoc/internal/workload"
)

// chunkCycles is the length of one timed chunk of a measured phase;
// ns_per_cycle is the median over the measured window's chunks.
const chunkCycles = 100

// drainCycles and drainStall bound an open-loop drain: a drain that runs
// out of cycles, or sees no ejection for drainStall cycles, leaves its
// packets failed.
const (
	drainCycles = 400000
	drainStall  = 20000
)

// workloadDef is one named workload of BENCHMARK.json.
type workloadDef struct {
	name string
	// prepare builds the per-process state for a seed: the warm checkpoint
	// of an open-loop workload. It is not part of any timed phase.
	prepare func(seed uint64) (bench, error)
}

// workloads lists the benchmark's workloads. All run the core UPP scheme
// with the library's default kernel, shards and pooling, so a change of
// default is measured.
var workloads = []workloadDef{
	{
		// The 2048-router preset at low load: the active-set bookkeeping
		// and UPP detection dominate, and no popup fires.
		name: "scale_sparse",
		prepare: func(seed uint64) (bench, error) {
			sc := topology.ScaleLargeConfig()
			return newOpenLoop(experiments.RunSpec{
				Scale: &sc, Scheme: experiments.SchemeUPP, Pattern: traffic.UniformRandom{},
				Rate: 0.01, Seed: seed, Dur: experiments.Durations{Warmup: 1500, Measure: 3000},
			})
		},
	},
	{
		// The paper's baseline system just past its saturation point:
		// every router is awake every cycle and the popup protocol runs.
		name: "baseline_saturated",
		prepare: func(seed uint64) (bench, error) {
			return newOpenLoop(experiments.RunSpec{
				Topo: topology.BaselineConfig(), Scheme: experiments.SchemeUPP, Pattern: traffic.UniformRandom{},
				Rate: 0.1, Seed: seed, Dur: experiments.Durations{Warmup: 5000, Measure: 120000},
			})
		},
	},
	{
		// A closed-loop collective on the output-queued router, run to
		// completion: the workload engine, NI reassembly and heavy
		// recovery.
		name: "alltoall_oq",
		prepare: func(seed uint64) (bench, error) {
			return newClosedLoop("all_to_all:flits=10,iters=20", router.ArchOQ, seed)
		},
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// bench is a prepared workload. setup builds a fresh system in its warm
// state and times it; with a tracer, the system's scheme and routers are
// instrumented and set-up is timed layer by layer. measure runs the
// measured phase once on a system from setup.
type bench interface {
	setup(tr *tracer) (*system, setupTimes, error)
	measure(s *system, tr *tracer) (roundResult, error)
}

// setupTimes times one set-up. The layer times are taken by traced
// set-ups only; restore is 0 when the warm state is not a checkpoint.
type setupTimes struct {
	total, build, new, restore time.Duration
	// restoredBytes is the size of the checkpoint restored.
	restoredBytes int
	// probeNS is the host-speed probe run after a timed sample.
	probeNS float64
}

// system is one simulation ready to measure.
type system struct {
	n   *network.Network
	g   *traffic.Generator // open loop
	eng *workload.Engine   // closed loop
}

// roundResult is the outcome of one measured phase.
type roundResult struct {
	digest string
	// window holds the timed chunks of the measured window (of the whole
	// run for a closed loop), drain those of an open loop's drain. They
	// live in the workload's chunk buffers, which the next round reuses.
	window, drain []chunk
	// rawNSPerCycle and rawWall are the unscaled median chunk and phase
	// times, and probeNS the median probe; summarize sets them.
	rawNSPerCycle, rawWall, probeNS float64
	// cycles is the measured window (the whole run of a closed loop);
	// allocs are the heap allocations made in it.
	cycles    int64
	allocs    uint64
	heapBytes uint64

	attempted, failed int64

	p50, p99   uint64
	throughput float64
	finish     int64
	// phaseCycles is the whole measured phase, drain included.
	phaseCycles int64

	// counts are the layer counters over the measured phase (window plus
	// drain); messages are the workload messages delivered.
	counts   counters
	messages uint64
}

// summarize returns the round with its chunks reduced to the unscaled
// summaries, so that it no longer refers to the reused chunk buffers.
func (r roundResult) summarize() roundResult {
	var probes []float64
	for _, part := range [][]chunk{r.window, r.drain} {
		for _, c := range part {
			probes = append(probes, c.probeNS)
		}
	}
	r.rawNSPerCycle = median(perCycle(r.window))
	r.rawWall = phaseSeconds(r.window, r.drain)
	r.probeNS = median(probes)
	r.window, r.drain = nil, nil
	return r
}

// chunkBuffers hold one round's timed chunks. They are reused from round
// to round, so the runner's own memory does not grow with the number of
// rounds, and the live heap a round reports does not depend on how many
// rounds ran before it.
type chunkBuffers struct{ window, drain []chunk }

// counters are the simulator counters a round reports.
type counters struct {
	born, ejectedFlits                       uint64
	upward, popupsCompleted, popupsCancelled uint64
	saRequests, saGrants                     uint64
}

func readCounters(n *network.Network) counters {
	rs := n.RouterStats()
	return counters{
		born: n.Stats.BornPackets, ejectedFlits: n.Stats.EjectedFlits,
		upward: n.Stats.UpwardPackets, popupsCompleted: n.Stats.PopupsCompleted, popupsCancelled: n.Stats.PopupsCancelled,
		saRequests: rs.SARequests, saGrants: rs.SAGrants,
	}
}

// since returns the counts accumulated after c0 was read.
func (c counters) since(c0 counters) counters {
	return counters{
		born:            c.born - c0.born,
		ejectedFlits:    c.ejectedFlits - c0.ejectedFlits,
		upward:          c.upward - c0.upward,
		popupsCompleted: c.popupsCompleted - c0.popupsCompleted,
		popupsCancelled: c.popupsCancelled - c0.popupsCancelled,
		saRequests:      c.saRequests - c0.saRequests,
		saGrants:        c.saGrants - c0.saGrants,
	}
}

// digest hashes the simulated outcome: the network and router counters,
// the latency percentiles, the finish cycle and the workload's delivered
// messages. The fields are named one by one so that a counter added to
// Stats later does not change the digest of an unchanged simulation.
func digest(n *network.Network, p50, p99 uint64, finish int64, messages uint64) string {
	s := n.Stats
	rs := n.RouterStats()
	h := sha256.New()
	fmt.Fprintln(h, n.Cycle(), s.MeasureStart, s.BornPackets, s.InjectedPackets, s.InjectedFlits,
		s.EjectedFlits, s.EjectedPackets, s.ConsumedPackets, s.MeasuredPackets, s.NetLatencySum,
		s.QueueLatencySum, s.UpwardPackets, s.PopupsStarted, s.PopupsCancelled, s.PopupsCompleted,
		s.SignalsSent, s.ReservationsGranted, s.InjectionHolds)
	fmt.Fprintln(h, rs.BufferWrites, rs.BufferReads, rs.CrossbarTravs, rs.LinkTravs,
		rs.SARequests, rs.SAGrants, rs.UpFlits)
	fmt.Fprintln(h, p50, p99, finish, messages)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// heapAfterGC forces a collection and returns the live heap.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// openLoop is a uniform-random workload measured over a fixed window from
// a warm state, then drained. The warm state is made once per process by
// running the warmup and saving it with experiments.WriteCheckpoint; every
// set-up restores it with experiments.ReadCheckpoint, so every round
// simulates exactly the same cycles.
type openLoop struct {
	spec experiments.RunSpec
	// checkpoint is the warm state as a checkpoint container; snapshot is
	// the same state as a bare network snapshot, which the traced set-up
	// restores into a network built around the traced scheme.
	checkpoint, snapshot []byte
	chunks               chunkBuffers
}

func newOpenLoop(spec experiments.RunSpec) (*openLoop, error) {
	n, g, err := experiments.BuildRun(spec)
	if err != nil {
		return nil, err
	}
	for n.Cycle() < sim.Cycle(spec.Dur.Warmup) {
		g.Tick(n.Cycle())
		n.Step()
	}
	var ckpt, snap bytes.Buffer
	if err := experiments.WriteCheckpoint(&ckpt, spec, n, g); err != nil {
		return nil, err
	}
	if err := n.WriteSnapshot(&snap, g); err != nil {
		return nil, err
	}
	return &openLoop{spec: spec, checkpoint: ckpt.Bytes(), snapshot: snap.Bytes()}, nil
}

func (o *openLoop) buildTopology() (*topology.Topology, error) {
	if o.spec.Scale != nil {
		return topology.BuildScale(*o.spec.Scale)
	}
	return topology.Build(o.spec.Topo)
}

func (o *openLoop) setup(tr *tracer) (*system, setupTimes, error) {
	st := setupTimes{restoredBytes: len(o.checkpoint)}
	if tr == nil {
		t0 := time.Now()
		n, g, _, err := experiments.ReadCheckpoint(o.checkpoint)
		st.total = time.Since(t0)
		if err != nil {
			return nil, st, err
		}
		return &system{n: n, g: g}, st, nil
	}
	// The traced set-up does what ReadCheckpoint does, one layer at a
	// time, with the same network and generator seeds as
	// experiments.BuildRun; the traced-equals-untraced digest check
	// catches any drift between the two.
	t0 := time.Now()
	topo, err := o.buildTopology()
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	cfg := network.DefaultConfig()
	cfg.Seed = o.spec.Seed + 1
	n, err := network.New(topo, cfg, &tracedScheme{Scheme: core.New(core.DefaultConfig()), t: tr})
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	g := traffic.NewGenerator(n, o.spec.Pattern, o.spec.Rate, o.spec.Seed+7777)
	if err := n.ReadSnapshot(o.snapshot, g); err != nil {
		return nil, st, err
	}
	t3 := time.Now()
	traceRouters(n, tr)
	st.total, st.build, st.new, st.restore = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	return &system{n: n, g: g}, st, nil
}

func (o *openLoop) measure(s *system, tr *tracer) (roundResult, error) {
	n, g := s.n, s.g
	window := o.spec.Dur.Measure
	if o.chunks.window == nil {
		o.chunks.window = make([]chunk, 0, (window+chunkCycles-1)/chunkCycles)
	}
	r := roundResult{window: o.chunks.window[:0], cycles: int64(window)}
	var tickNS *int64
	if tr != nil {
		tickNS = &tr.trafficNS
	}
	n.ResetMeasurement()
	start := n.Cycle()
	c0 := readCounters(n)
	runtime.GC()
	m0 := mallocs()
	if tr != nil {
		tr.on = true
	}
	for done := 0; done < window; done += chunkCycles {
		steps := min(chunkCycles, window-done)
		tc := time.Now()
		runCycles(n, g.Tick, nil, steps, tr, tickNS)
		r.window = append(r.window, endChunk(tc, steps))
	}
	if tr != nil {
		tr.stop()
	}
	r.allocs = mallocs() - m0
	r.throughput = n.Throughput()
	r.attempted = int64(n.Stats.BornPackets - c0.born)
	r.heapBytes = heapAfterGC()
	var drainErr error
	r.drain, drainErr = drain(n, o.chunks.drain[:0])
	o.chunks = chunkBuffers{window: r.window, drain: r.drain}
	r.finish = int64(n.Cycle() - start)
	r.phaseCycles = r.finish
	if drainErr != nil {
		// Packets left in flight; older packets than the window's are
		// counted too, so the count is capped at the window's.
		r.failed = max(min(int64(n.InFlight()), r.attempted), 1)
	}
	r.counts = readCounters(n).since(c0)
	r.p50, r.p99 = n.LatencyPercentile(0.50), n.LatencyPercentile(0.99)
	r.digest = digest(n, r.p50, r.p99, r.finish, 0)
	if drainErr != nil {
		return r, fmt.Errorf("drain: %w", drainErr)
	}
	return r, nil
}

// drain runs n until no packet is in flight, one timed chunk at a time. It
// fails as Network.Drain does: when drainCycles pass, or when no flit is
// ejected for drainStall cycles.
func drain(n *network.Network, out []chunk) ([]chunk, error) {
	end := n.Cycle() + drainCycles
	lastEject, ejected := n.Cycle(), n.Stats.EjectedFlits
	for !n.Quiesced() {
		switch {
		case n.Cycle() >= end:
			return out, fmt.Errorf("%d packets still in flight after %d cycles", n.InFlight(), drainCycles)
		case n.Cycle()-lastEject > drainStall:
			return out, fmt.Errorf("no flit ejected for %d cycles, %d packets in flight", drainStall, n.InFlight())
		}
		c0 := n.Cycle()
		tc := time.Now()
		// Network.Drain skips idle cycles as a long drain would. Its error
		// only says that packets remain after the chunk; progress is
		// checked above.
		_ = n.Drain(chunkCycles, drainStall)
		out = append(out, endChunk(tc, int(n.Cycle()-c0)))
		if n.Stats.EjectedFlits != ejected {
			lastEject, ejected = n.Cycle(), n.Stats.EjectedFlits
		}
	}
	return out, nil
}

// closedLoop is a workload.Engine program run from an empty network to
// completion.
type closedLoop struct {
	program string
	spec    workload.Spec
	arch    string
	seed    uint64
	// messages is the number of workload messages one run delivers: the
	// program's messages once per iteration.
	messages int64
	chunks   chunkBuffers
}

// closedLoopCycles caps a closed-loop run; a program unfinished by then
// has failed.
const closedLoopCycles = 2000000

func newClosedLoop(program, arch string, seed uint64) (*closedLoop, error) {
	spec, err := workload.ParseSpec(program)
	if err != nil {
		return nil, err
	}
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return nil, err
	}
	prog, err := spec.Build(len(topo.Cores()))
	if err != nil {
		return nil, err
	}
	return &closedLoop{program: program, spec: spec, arch: arch, seed: seed,
		messages: int64(prog.Messages() * spec.EngineIterations())}, nil
}

func (c *closedLoop) setup(tr *tracer) (*system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	var scheme network.Scheme = core.New(core.DefaultConfig())
	if tr != nil {
		scheme = &tracedScheme{Scheme: scheme, t: tr}
	}
	// The network seed follows experiments.RunWorkload.
	cfg := network.DefaultConfig()
	cfg.Seed = c.seed + 1
	cfg.RouterArch = c.arch
	n, err := network.New(topo, cfg, scheme)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	prog, err := c.spec.Build(len(topo.Cores()))
	if err != nil {
		return nil, st, err
	}
	eng, err := workload.NewEngine(n, prog)
	if err != nil {
		return nil, st, err
	}
	eng.Iterations = c.spec.EngineIterations()
	st.total, st.build, st.new = time.Since(t0), t1.Sub(t0), t2.Sub(t1)
	if tr != nil {
		traceRouters(n, tr)
	}
	return &system{n: n, eng: eng}, st, nil
}

func (c *closedLoop) measure(s *system, tr *tracer) (roundResult, error) {
	n, eng := s.n, s.eng
	if c.chunks.window == nil {
		c.chunks.window = make([]chunk, 0, closedLoopCycles/chunkCycles+1)
	}
	r := roundResult{window: c.chunks.window[:0], attempted: c.messages}
	var tickNS *int64
	if tr != nil {
		tickNS = &tr.workloadNS
	}
	c0 := readCounters(n)
	runtime.GC()
	m0 := mallocs()
	if tr != nil {
		tr.on = true
	}
	for r.cycles < closedLoopCycles && !eng.Done() {
		tc := time.Now()
		steps := runCycles(n, eng.Tick, eng.Done, chunkCycles, tr, tickNS)
		if steps > 0 {
			r.window = append(r.window, endChunk(tc, steps))
		}
		r.cycles += int64(steps)
	}
	c.chunks.window = r.window
	if tr != nil {
		tr.stop()
	}
	r.allocs = mallocs() - m0
	r.heapBytes = heapAfterGC()
	r.throughput = n.Throughput()
	r.messages = eng.MessagesDelivered
	r.phaseCycles = r.cycles
	if eng.Done() {
		r.finish = int64(eng.FinishCycle())
	}
	r.counts = readCounters(n).since(c0)
	r.p50, r.p99 = n.LatencyPercentile(0.50), n.LatencyPercentile(0.99)
	r.digest = digest(n, r.p50, r.p99, r.finish, r.messages)
	switch {
	case !eng.Done():
		r.failed = max(r.attempted-int64(r.messages), 1)
		return r, fmt.Errorf("%s unfinished after %d cycles", c.program, r.cycles)
	case n.InFlight() != 0:
		r.failed = r.attempted
		return r, fmt.Errorf("%s finished with %d packets in flight", c.program, n.InFlight())
	case int64(r.messages) != r.attempted:
		r.failed = r.attempted
		return r, fmt.Errorf("%s delivered %d of %d messages", c.program, r.messages, r.attempted)
	}
	return r, nil
}
