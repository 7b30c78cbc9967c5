package experiments

import (
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// KernelBench is a warmed-up baseline-system UPP simulation prepared for
// cycle-kernel benchmarking: Run advances whole cycles, so a benchmark
// that maps b.N to cycles reads ns/op directly as ns per simulated cycle.
// cmd/benchjson and the BenchmarkKernel* benchmarks share it so the
// recorded perf trajectory measures exactly what the benchmarks do.
type KernelBench struct {
	g   *traffic.Generator
	net *network.Network
}

// NewKernelBench builds a baseline system under the given cycle kernel
// and offered load, then runs a warmup so the measured window sees
// steady-state occupancy rather than a cold, empty network (which would
// flatter the active-set kernel).
func NewKernelBench(kernel string, rate float64) (*KernelBench, error) {
	return NewKernelBenchPool(kernel, rate, false)
}

// NewKernelBenchPool is NewKernelBench with explicit control over packet
// pooling — the before/after axis of the allocation benchmarks
// (cmd/benchjson's BENCH_alloc.json) and the pooled-vs-unpooled
// equivalence tests.
func NewKernelBenchPool(kernel string, rate float64, disablePool bool) (*KernelBench, error) {
	return newKernelBench(kernel, "", rate, disablePool)
}

// NewKernelBenchArch is NewKernelBench with an explicit router
// microarchitecture ("iq", "oq", "voq") — the router axis of
// cmd/benchjson's BENCH_router.json and the per-arch steady-state
// allocation pins.
func NewKernelBenchArch(kernel, arch string, rate float64) (*KernelBench, error) {
	return newKernelBench(kernel, arch, rate, false)
}

func newKernelBench(kernel, arch string, rate float64, disablePool bool) (*KernelBench, error) {
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	cfg.RouterArch = arch
	cfg.DisablePool = disablePool
	n, err := network.New(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	kb := &KernelBench{g: traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 99), net: n}
	kb.g.Run(2000)
	return kb, nil
}

// NewScaleBench builds a scale-out system (topology.BuildScale) under the
// given cycle kernel and offered load — the measurement behind
// cmd/benchjson's BENCH_scale.json rows. The warmup is shorter than the
// baseline bench's (the per-cycle cost of a 2k-8k router system makes
// 2000 warmup cycles dominate the run) but long enough for several
// zero-load traversals of the largest mesh, so the measured window still
// sees steady-state occupancy.
func NewScaleBench(kernel string, sc topology.ScaleConfig, rate float64) (*KernelBench, error) {
	topo, err := topology.BuildScale(sc)
	if err != nil {
		return nil, err
	}
	cfg := network.DefaultConfig()
	cfg.Kernel = kernel
	n, err := network.New(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	kb := &KernelBench{g: traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 99), net: n}
	kb.g.Run(1000)
	return kb, nil
}

// Network exposes the benched network (pool preallocation and stats for
// the allocation harness).
func (kb *KernelBench) Network() *network.Network { return kb.net }

// Run advances the simulation the given number of cycles.
func (kb *KernelBench) Run(cycles int) { kb.g.Run(cycles) }
