package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
)

// declaration is the part of BENCHMARK.json the runner must agree with.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatches checks that the runner declares exactly the
// workloads and metrics of BENCHMARK.json, with the same units.
func TestDeclarationMatches(t *testing.T) {
	d := readDeclaration(t)
	var want, got []string
	for _, w := range d.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		got = append(got, w.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads: runner %v, BENCHMARK.json %v", got, want)
	}
	check := func(kind string, defs []metricDef, decl []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(decl) {
			t.Errorf("%s: runner declares %d metrics, BENCHMARK.json %d", kind, len(defs), len(decl))
			return
		}
		for i, m := range decl {
			if defs[i].name != m.Name || defs[i].unit != m.Unit {
				t.Errorf("%s[%d]: runner %s (%s), BENCHMARK.json %s (%s)", kind, i, defs[i].name, defs[i].unit, m.Name, m.Unit)
			}
		}
	}
	check("end_to_end", endToEnd, d.EndToEnd)
	check("per_layer", perLayer, d.PerLayer)
}

// TestWorkloads runs one untraced and one traced round of every workload
// at the default seed and checks the digest gate, that tracing leaves the
// simulated output unchanged, the failure accounting, and that every
// declared metric is produced.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rep, err := run(options{workload: w.name, seed: defaultSeed, trace: true, expected: expectedDigests})
			if err != nil {
				t.Fatal(err)
			}
			if want := expectedDigests[w.name][defaultSeed]; rep.digest != want {
				t.Errorf("digest %s, stored %s", rep.digest, want)
			}
			if rep.tracedDigest != rep.digest {
				t.Errorf("traced digest %s differs from untraced %s", rep.tracedDigest, rep.digest)
			}
			if !rep.correct || rep.attempted == 0 || rep.failed != 0 {
				t.Errorf("correct %v, %d attempted, %d failed; notes:\n%s", rep.correct, rep.attempted, rep.failed, strings.Join(rep.notes, "\n"))
			}
			for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
				if _, ok := rep.metrics[m.name]; !ok {
					t.Errorf("metric %s not produced", m.name)
				}
			}
			for _, m := range endToEnd {
				if rep.metrics[m.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, rep.metrics[m.name])
				}
			}
		})
	}
}

// lastLine parses the final JSON line of the command's output.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	if len(keys) != 4 {
		t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCommandOutput checks the command line: each trace mode prints
// exactly its declared metrics with their units, and a stored digest that
// does not match fails every operation and the exit code.
func TestCommandOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a workload")
	}
	args := []string{"--workload", "baseline_saturated", "--seed", "1", "--seconds", "0"}
	for _, mode := range []struct {
		trace string
		defs  []metricDef
	}{{"0", endToEnd}, {"1", perLayer}} {
		var stdout, stderr bytes.Buffer
		if code := mainExit(append(args, "--trace", mode.trace), &stdout, &stderr, expectedDigests); code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode.trace, code, stderr.String())
		}
		r := lastLine(t, stdout.String())
		if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
			t.Errorf("trace %s: correct %v, %d attempted, %d failed", mode.trace, r.Correct, r.Attempted, r.Failed)
		}
		if len(r.Metrics) != len(mode.defs) {
			t.Errorf("trace %s: %d metrics, want %d", mode.trace, len(r.Metrics), len(mode.defs))
		}
		for _, d := range mode.defs {
			if m, ok := r.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("trace %s: metric %s = %+v, want unit %s", mode.trace, d.name, m, d.unit)
			}
		}
	}

	wrong := map[string]map[uint64]string{"baseline_saturated": {1: "0000000000000000"}}
	var stdout, stderr bytes.Buffer
	if code := mainExit(append(args, "--trace", "0"), &stdout, &stderr, wrong); code == 0 {
		t.Error("a digest mismatch exited 0")
	}
	r := lastLine(t, stdout.String())
	if r.Correct || r.Attempted == 0 || r.Failed != r.Attempted {
		t.Errorf("digest mismatch: correct %v, %d attempted, %d failed; want every operation failed", r.Correct, r.Attempted, r.Failed)
	}
}

// TestLibraryEnvCleared checks that the library's environment variables
// do not reach the simulator.
func TestLibraryEnvCleared(t *testing.T) {
	t.Setenv("UPP_KERNEL", "naive")
	t.Setenv("UPP_ROUTER", "voq")
	cleared := clearLibraryEnv()
	if strings.Join(cleared, " ") != "UPP_KERNEL UPP_ROUTER" {
		t.Errorf("cleared %v", cleared)
	}
	for _, k := range libraryEnv {
		if _, ok := os.LookupEnv(k); ok {
			t.Errorf("%s still set", k)
		}
	}
}

// TestFastest checks the host-time scaling: each chunk is scaled by the
// median of the probes around it, so one probe slowed by an interrupt
// changes nothing, and a run keeps each chunk at its least scaled time
// across rounds.
func TestFastest(t *testing.T) {
	probes := []float64{100, 100, 100, 900, 100, 100, 100}
	for i, s := range speeds(probes) {
		if s != 100 {
			t.Errorf("speed %d = %v, want 100 despite one slow probe", i, s)
		}
	}

	round := func(probe float64, ns ...float64) roundResult {
		var r roundResult
		for _, x := range ns {
			r.window = append(r.window, chunk{cycles: 100, ns: x, probeNS: probe})
		}
		return r
	}
	// The second round ran where the probe took twice as long.
	slow := math.Pow(2, probeExponent)
	var f fastest
	f.add(round(probeRefNS, 1000, 5000))
	f.add(round(2*probeRefNS, 4000, 4000))
	want := []float64{1000, 4000 / slow}
	for i, c := range f.window {
		if math.Abs(c.ns-want[i]) > 1e-9 {
			t.Errorf("chunk %d: fastest scaled ns %v, want %v", i, c.ns, want[i])
		}
	}
	if got := phaseSeconds(f.window, f.drain); math.Abs(got-(want[0]+want[1])/1e9) > 1e-18 {
		t.Errorf("phase %v s, want %v s", got, (want[0]+want[1])/1e9)
	}
}
