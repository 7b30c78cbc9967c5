package network

import (
	"bytes"
	"strings"
	"testing"

	"uppnoc/internal/topology"
)

// TestReadSnapshotRejectsRetiredEventKind: wire kind 2 (evRetired) once
// carried a scheme closure, which no snapshot can restore. A snapshot
// holding one must fail to load rather than be replayed as another kind.
func TestReadSnapshotRejectsRetiredEventKind(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	n := MustNew(topo, DefaultConfig(), None{})
	n.Run(5)
	slot := (n.Cycle() + 1) % wheelSize
	n.wheel[slot] = append(n.wheel[slot], event{kind: evRetired})
	n.wheelPending++
	var buf bytes.Buffer
	if err := n.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	err := MustNew(topo, DefaultConfig(), None{}).ReadSnapshot(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "event kind 2 invalid") {
		t.Fatalf("snapshot with a kind-2 wheel event: got error %v, want an invalid-kind rejection", err)
	}
}
