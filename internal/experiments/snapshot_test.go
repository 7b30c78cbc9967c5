package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// snapSpec is the shared configuration of the checkpoint/restore
// equivalence tests: small enough to run under -race -short, loaded
// enough (1 VC, near the knee) that popups, signals and queued flits are
// in flight at the checkpoint cycle.
func snapSpec(sch SchemeName, arch string) RunSpec {
	return RunSpec{
		Topo:       topology.BaselineConfig(),
		Scheme:     sch,
		VCsPerVNet: 1,
		Pattern:    traffic.UniformRandom{},
		Rate:       0.16,
		Seed:       11,
		Dur:        Durations{Warmup: 400, Measure: 800},
		RouterArch: arch,
	}
}

// TestCheckpointRestoreEquivalence is the tentpole acceptance test: a run
// checkpointed at cycle C and resumed from the checkpoint must reproduce
// the uninterrupted run bit-identically, across both cycle kernels, every
// router microarchitecture and both popup-style schemes. The
// checkpoint lands mid-measurement (cycle 700 of a 400+800 schedule), so
// the statistics, latency histogram, event wheel and scheme FSMs are all
// mid-flight when serialized. Deliberately not skipped under -short: CI
// runs this matrix under the race detector.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	var totalPopups uint64
	for _, kernel := range []string{"active", "naive"} {
		for _, arch := range []string{"iq", "oq", "voq"} {
			for _, sch := range []SchemeName{SchemeUPP, SchemeRemoteControl} {
				// The literal "shards" segment is what the subtest IDs
				// have always carried; keeping it keeps them comparable
				// across test histories.
				name := fmt.Sprintf("%s/shards/%s/%s", kernel, arch, sch)
				t.Run(name, func(t *testing.T) {
					t.Setenv("UPP_KERNEL", kernel)
					t.Setenv("UPP_CACHE_DIR", "")
					spec := snapSpec(sch, arch)
					var buf bytes.Buffer
					cold, err := RunCheckpointed(spec, 700, &buf)
					if err != nil {
						t.Fatal(err)
					}
					restored, rspec, err := RunRestored(buf.Bytes())
					if err != nil {
						t.Fatal(err)
					}
					if restored != cold {
						t.Fatalf("restored run diverged from uninterrupted run:\ncold:     %+v\nrestored: %+v", cold, restored)
					}
					if rspec.Scheme != spec.Scheme || rspec.RouterArch != spec.RouterArch {
						t.Fatalf("checkpoint spec round-trip: got scheme=%s arch=%s", rspec.Scheme, rspec.RouterArch)
					}
					totalPopups += cold.Popups
				})
			}
		}
	}
	if totalPopups == 0 {
		t.Fatal("no popups completed anywhere in the matrix — the checkpoint never exercised scheme FSM state")
	}
}

// TestCheckpointIsPureObservation pins that writing a checkpoint does not
// perturb the run: RunCheckpointed's Point equals plain Run's, for both a
// mid-measurement and an end-of-warmup checkpoint cycle (the latter is
// the warm-start capture point, before the measurement reset).
func TestCheckpointIsPureObservation(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", "")
	for _, sch := range []SchemeName{SchemeUPP, SchemeRemoteControl} {
		spec := snapSpec(sch, "iq")
		plain, err := Run(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range []int64{400, 700} {
			var buf bytes.Buffer
			pt, err := RunCheckpointed(spec, at, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if pt != plain {
				t.Fatalf("%s: checkpoint at %d perturbed the run:\nplain:        %+v\ncheckpointed: %+v", sch, at, pt, plain)
			}
			restored, _, err := RunRestored(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if restored != plain {
				t.Fatalf("%s: restore from cycle %d diverged:\nplain:    %+v\nrestored: %+v", sch, at, restored, plain)
			}
		}
	}
}

// TestCheckpointRestoreFaulted checkpoints a run with the runtime fault
// engine active — link flaps in progress, signal drops and delays armed —
// in the middle of a flap window, and requires bit-identical resumption.
// The fault engine's signal fates are stateless hashes of the cycle, but
// the retry/timeout state they induce in the hardened UPP scheme is not;
// this pins that that state survives serialization.
func TestCheckpointRestoreFaulted(t *testing.T) {
	t.Setenv("UPP_CACHE_DIR", "")
	spec := snapSpec(SchemeUPP, "iq")
	spec.Rate = 0.05
	spec.FaultPlan = "seed=9,flaps=4,flapevery=200,drop=0.15,delayprob=0.1"
	var buf bytes.Buffer
	cold, err := RunCheckpointed(spec, 700, &buf)
	if err != nil {
		t.Fatal(err)
	}
	restored, _, err := RunRestored(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if restored != cold {
		t.Fatalf("faulted restore diverged:\ncold:     %+v\nrestored: %+v", cold, restored)
	}
	plain, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain != cold {
		t.Fatalf("faulted checkpoint perturbed the run:\nplain:        %+v\ncheckpointed: %+v", plain, cold)
	}
}
