package network

import (
	"strings"
	"testing"

	"uppnoc/internal/router"
	"uppnoc/internal/topology"
)

// TestValidateWheelHorizon: link latency + pipeline depth combinations the
// event wheel cannot cover must be rejected at config time, not by a
// runtime wheel-horizon panic mid-simulation.
func TestValidateWheelHorizon(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Router.LinkLatency = wheelSize - router.PipelineDepth - 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("latency just inside the horizon rejected: %v", err)
	}
	cfg.Router.LinkLatency = wheelSize - router.PipelineDepth
	err := cfg.Validate()
	if err == nil {
		t.Fatalf("latency %d reaching the %d-cycle wheel horizon accepted", cfg.Router.LinkLatency, wheelSize)
	}
	if !strings.Contains(err.Error(), "wheel") {
		t.Fatalf("horizon error does not name the wheel: %v", err)
	}
}

// TestValidateKernelName: only the two kernel names (or empty) pass.
func TestValidateKernelName(t *testing.T) {
	cfg := DefaultConfig()
	for _, k := range []string{"", KernelActive, KernelNaive} {
		cfg.Kernel = k
		if err := cfg.Validate(); err != nil {
			t.Fatalf("kernel %q rejected: %v", k, err)
		}
	}
	cfg.Kernel = "turbo"
	if err := cfg.Validate(); err == nil {
		t.Fatal("unknown kernel name accepted")
	}
}

// TestKernelResolution covers the Config.Kernel -> UPP_KERNEL -> default
// resolution chain in New.
func TestKernelResolution(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	build := func(cfgKernel string) (*Network, error) {
		cfg := DefaultConfig()
		cfg.Kernel = cfgKernel
		return New(topo, cfg, None{})
	}

	t.Run("default", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", "")
		n, err := build("")
		if err != nil {
			t.Fatal(err)
		}
		if n.Kernel() != KernelActive {
			t.Fatalf("default kernel %q, want %q", n.Kernel(), KernelActive)
		}
	})
	t.Run("env", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", KernelNaive)
		n, err := build("")
		if err != nil {
			t.Fatal(err)
		}
		if n.Kernel() != KernelNaive {
			t.Fatalf("kernel %q, want %q from UPP_KERNEL", n.Kernel(), KernelNaive)
		}
	})
	t.Run("config beats env", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", KernelNaive)
		n, err := build(KernelActive)
		if err != nil {
			t.Fatal(err)
		}
		if n.Kernel() != KernelActive {
			t.Fatalf("kernel %q, want explicit config to win over env", n.Kernel())
		}
	})
	t.Run("bad env", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", "turbo")
		if _, err := build(""); err == nil {
			t.Fatal("invalid UPP_KERNEL accepted")
		}
	})
	// "parallel" names no kernel (DESIGN.md §9): asking for it must fail
	// and list the kernels that exist, not fall back to one of them.
	rejectsParallel := func(t *testing.T, err error) {
		t.Helper()
		if err == nil {
			t.Fatal("removed kernel \"parallel\" accepted")
		}
		for _, want := range []string{`"parallel"`, `"active"`, `"naive"`} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("error %q does not name %s", err, want)
			}
		}
	}
	t.Run("parallel env", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", "parallel")
		_, err := build("")
		rejectsParallel(t, err)
	})
	t.Run("parallel config", func(t *testing.T) {
		t.Setenv("UPP_KERNEL", "")
		_, err := build("parallel")
		rejectsParallel(t, err)
	})
}
