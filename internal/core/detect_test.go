package core

import (
	"testing"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/routing"
	"uppnoc/internal/topology"
)

// TestFindStalledHead pins the detector's selection order on one
// interposer router holding a stalled Up-bound head and a stalled
// mesh-bound head of the same VNet. The Up-bound head is always found and
// always wins; the mesh-bound one is found only while a routing-epoch
// transition is active and no Up-bound head is stalled. Each case runs
// from two round-robin starts, one reaching the mesh head first, so a
// single pass accepting either direction would also fail.
func TestFindStalledHead(t *testing.T) {
	topo := topology.MustBuild(topology.BaselineConfig())
	u := New(DefaultConfig())
	n := network.MustNew(topo, network.DefaultConfig(), u)

	var r router.Microarch
	var upOut, meshOut topology.PortID
	for _, id := range topo.Interposer {
		node := topo.Node(id)
		up, east := node.PortTo(topology.Up), node.PortTo(topology.East)
		if up != topology.InvalidPort && east != topology.InvalidPort {
			r, upOut, meshOut = n.Router(id), up, east
			break
		}
	}
	if r == nil {
		t.Fatal("no interposer router with both an Up and an East port")
	}

	const vnet = message.VNet(0)
	const meshIn, upIn topology.PortID = 1, 2
	const cycle = 5
	vcIdx := r.Config().VCIndex(vnet, 0)
	nvc := r.Config().NumVCs()

	// stall parks a routed single-flit head of vnet in input VC
	// (in, vcIdx), waiting for output out.
	stall := func(in, out topology.PortID) *router.VC {
		pkt := &message.Packet{ID: uint64(in), VNet: vnet, Size: 1}
		r.ReceiveFlit(in, int8(vcIdx), message.Flit{Pkt: pkt}, 0)
		vc := r.VCAt(in, vcIdx)
		vc.State, vc.OutPort = router.VCWaiting, out
		return vc
	}
	stall(meshIn, meshOut)
	up := stall(upIn, upOut)

	rrStarts := map[string]int{
		"up-first":   int(upIn)*nvc + vcIdx - 1,
		"mesh-first": int(meshIn)*nvc + vcIdx - 1,
	}
	check := func(phase string, want topology.PortID) {
		t.Helper()
		for name, rr := range rrStarts {
			port, gotVC, _ := u.findStalledHead(r, vnet, rr, cycle)
			if port != want || (want != topology.InvalidPort && gotVC != vcIdx) {
				t.Errorf("%s, %s scan: found (port %d, vc %d), want port %d", phase, name, port, gotVC, want)
			}
		}
	}

	check("steady state, both heads", upIn)
	up.State = router.VCIdle
	check("steady state, mesh head only", topology.InvalidPort)

	n.BeginRouteTransition(routing.NewXY(topo), false)
	if !n.TransitionActive() {
		t.Fatal("BeginRouteTransition left no transition active")
	}
	check("transition, mesh head only", meshIn)
	up.State = router.VCWaiting
	check("transition, both heads", upIn)
}
