package experiments

import (
	"os"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// TestSteadyStateZeroAlloc pins the steady-state simulation loop at
// exactly zero heap allocations. The recipe matters: the pool is
// preallocated past the live high-water mark and the warmup is long
// enough that every lazily-grown buffer (injection rings, waiter and
// completion slices, wheel slots, router scratch) has reached its
// steady-state capacity. After that, a measurement window must not
// allocate at all — any regression (a map rebuilt per cycle, a slice
// regrown from zero, a closure capture in the hot path) fails this test
// with a nonzero count.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	if os.Getenv("UPP_NOPOOL") != "" {
		t.Skip("pooling disabled via UPP_NOPOOL")
	}
	// Every router microarchitecture is held to the bar, not just the
	// default iq pipeline: oq's staging FIFOs and voq's per-output
	// nomination use preallocated storage only. The oq leg runs at a
	// lower offered load because its saturation throughput is below
	// 0.05 (one drain per output per cycle from half-depth input
	// buffers) — past saturation the injection queues grow without
	// bound and "steady state" does not exist.
	rates := map[string]float64{router.ArchIQ: 0.05, router.ArchOQ: 0.035, router.ArchVOQ: 0.05}
	for _, arch := range RouterArchs() {
		t.Run(network.KernelActive+"_"+arch, func(t *testing.T) {
			cfg := network.DefaultConfig()
			cfg.Kernel = network.KernelActive
			cfg.RouterArch = arch
			kb, err := NewKernelBench(cfg, rates[arch])
			if err != nil {
				t.Fatal(err)
			}
			kb.Network().PacketPool().Preallocate(4096)
			kb.Run(20000) // reach steady-state occupancy and buffer high-water marks
			allocs := testing.AllocsPerRun(10, func() {
				kb.Run(500)
			})
			if allocs != 0 {
				t.Fatalf("steady-state window allocated %.2f objects per 500 cycles; want exactly 0", allocs)
			}
			st := kb.Network().PacketPool().Stats
			if st.Reuses == 0 {
				t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
			}
		})
	}
}

// TestSteadyStateZeroAllocScale holds the scale-out systems to the same
// zero-allocation bar: on the hierarchical 2048-router preset, the awake
// lists, the NI wake heap and the idle-cycle fast-forward must all run
// out of preallocated storage once warmup has established high-water
// marks. The pool preallocation is larger than the baseline test's
// because the live packet population scales with cores x latency. The
// offered rate sits
// below the scale systems' uniform-random saturation (~0.015 accepted
// flits/cycle/node on the 2048-router preset — the interposer bisection,
// not the paper baseline's knee, is the limit): past it the injection
// queues grow without bound and "steady state" does not exist.
func TestSteadyStateZeroAllocScale(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	if os.Getenv("UPP_NOPOOL") != "" {
		t.Skip("pooling disabled via UPP_NOPOOL")
	}
	t.Run(network.KernelActive, func(t *testing.T) {
		kb, err := NewScaleBench(network.KernelActive, topology.ScaleLargeConfig(), 0.01)
		if err != nil {
			t.Fatal(err)
		}
		kb.Network().PacketPool().Preallocate(32768)
		kb.Run(10000) // reach steady-state occupancy and buffer high-water marks
		allocs := testing.AllocsPerRun(5, func() {
			kb.Run(200)
		})
		if allocs != 0 {
			t.Fatalf("scale steady-state window allocated %.2f objects per 200 cycles; want exactly 0", allocs)
		}
		st := kb.Network().PacketPool().Stats
		if st.Reuses == 0 {
			t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
		}
	})
}

// TestSteadyStateZeroAllocCollective holds the closed-loop workload
// engine to the same zero-allocation bar as the rate-driven loop: a
// looping training-step collective (dependency gating, compute gaps,
// iteration rollover, barrier) must not allocate per cycle once the
// engine's one-time buffers (the iteration-cycle log) and the network's
// lazily-grown structures have reached steady state.
func TestSteadyStateZeroAllocCollective(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second warmup")
	}
	if os.Getenv("UPP_NOPOOL") != "" {
		t.Skip("pooling disabled via UPP_NOPOOL")
	}
	t.Run(network.KernelActive, func(t *testing.T) {
		wb, err := NewWorkloadBench(network.KernelActive)
		if err != nil {
			t.Fatal(err)
		}
		wb.Network().PacketPool().Preallocate(4096)
		wb.Run(20000) // several training iterations: all buffers at high-water marks
		allocs := testing.AllocsPerRun(10, func() {
			wb.Run(500)
		})
		if allocs != 0 {
			t.Fatalf("collective steady-state window allocated %.2f objects per 500 cycles; want exactly 0", allocs)
		}
		st := wb.Network().PacketPool().Stats
		if st.Reuses == 0 {
			t.Fatal("pool never recycled a packet — the zero-alloc result is vacuous")
		}
	})
}
