package experiments

import (
	"strings"
	"testing"

	"uppnoc/internal/network"
	"uppnoc/internal/topology"
	"uppnoc/internal/traffic"
)

// TestKernelCSVGolden: the CSV artifacts of the figure pipeline must be
// byte-identical under the active-set and naive kernels. Fig2
// runs in full (the design-time search is simulation-free but belongs to
// the artifact set); fig7 runs the real latencyFigure code path trimmed
// to a single traffic pattern with short windows, so every sweep,
// truncation and summary computation executes on every kernel. The CI
// smoke step diffs the untrimmed fig7 quick run the same way.
func TestKernelCSVGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second simulation")
	}
	dur := Durations{Warmup: 500, Measure: 2500}
	render := func(kernel string) string {
		t.Setenv("UPP_KERNEL", kernel)
		tables, err := Fig2(PoolOptions{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		fig7, err := latencyFigure("fig7", topology.BaselineConfig(),
			[]traffic.Pattern{traffic.UniformRandom{}}, dur, PoolOptions{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, tb := range append(tables, fig7...) {
			sb.WriteString(tb.CSV())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	active, naive := render(network.KernelActive), render(network.KernelNaive)
	if active == naive {
		return
	}
	al, nl := strings.Split(active, "\n"), strings.Split(naive, "\n")
	for i := 0; i < len(al) && i < len(nl); i++ {
		if al[i] != nl[i] {
			t.Fatalf("CSV output diverges at line %d:\nactive: %s\nnaive:  %s", i+1, al[i], nl[i])
		}
	}
	t.Fatalf("CSV lengths differ: active %d lines, naive %d lines", len(al), len(nl))
}
