package experiments

import (
	"uppnoc/internal/core"
	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// KernelBench is a warmed-up UPP simulation prepared for cycle-kernel
// benchmarking: Run advances whole cycles, so a benchmark that maps b.N
// to cycles reads ns/op directly as ns per simulated cycle. The
// BenchmarkKernel* benchmarks, the steady-state allocation pins and
// cmd/profile share it so each measures exactly what the others do.
type KernelBench struct {
	g   *traffic.Generator
	net *network.Network
}

// NewKernelBench builds the paper's baseline system under cfg (cycle
// kernel, router microarchitecture, packet pooling) and offered load,
// then runs a warmup so the measured window sees steady-state occupancy
// rather than a cold, empty network (which would flatter the active-set
// kernel).
func NewKernelBench(cfg network.Config, rate float64) (*KernelBench, error) {
	topo, err := topology.Build(topology.BaselineConfig())
	if err != nil {
		return nil, err
	}
	return newKernelBench(topo, cfg, rate, 2000)
}

// NewScaleBench builds a scale-out system (topology.BuildScale) under the
// given cycle kernel and offered load. The warmup is shorter than the
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
	return newKernelBench(topo, cfg, rate, 1000)
}

func newKernelBench(topo *topology.Topology, cfg network.Config, rate float64, warmup int) (*KernelBench, error) {
	n, err := network.New(topo, cfg, core.New(core.DefaultConfig()))
	if err != nil {
		return nil, err
	}
	kb := &KernelBench{g: traffic.NewGenerator(n, traffic.UniformRandom{}, rate, 99), net: n}
	kb.g.Run(warmup)
	return kb, nil
}

// Network exposes the benched network (pool preallocation and stats for
// the allocation harness).
func (kb *KernelBench) Network() *network.Network { return kb.net }

// Run advances the simulation the given number of cycles.
func (kb *KernelBench) Run(cycles int) { kb.g.Run(cycles) }
