package network

import (
	"uppnoc/internal/message"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// SchemeCall is a deferred scheme action in the event wheel, scheduled
// with Network.ScheduleCall. The scheme defines its own Kind space and
// decodes the payload in OnScheduledCall; the network only stores and
// redelivers the struct, which is what lets a snapshot capture pending
// protocol timing.
type SchemeCall struct {
	// Kind is scheme-private (see core's uppCall* constants).
	Kind uint8
	// Node is the landing node, when the action targets one.
	Node topology.NodeID
	// A and B are scheme-defined scalar payloads (popup ID, signal
	// kind, VNet...).
	A, B uint64
	// Hop is a scheme-defined small index (signal hop position).
	Hop int32
	// Flit is an optional flit payload (popup latch fills); HasFlit
	// distinguishes "no flit" from a genuine zero value.
	Flit    message.Flit
	HasFlit bool
}

// Scheme is a deadlock-freedom approach plugged into the network: UPP
// (internal/core), composable routing (internal/composable), remote
// control (internal/remotectl), or None (fully adaptive with no recovery —
// used to demonstrate that integration-induced deadlocks really form).
//
// A scheme observes and manipulates the datapath through the routers'
// plugin API and the hooks below; the base datapath itself is identical
// across schemes, which is what makes the paper's comparisons meaningful.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string
	// Policy selects egress boundary routers at injection time.
	Policy() routing.BoundaryPolicy
	// Attach wires the scheme to the network before simulation starts.
	Attach(n *Network)
	// StartOfCycle runs after event delivery and before router allocation:
	// schemes move protocol signals and popup flits here and claim
	// crossbar ports, which normal allocation then respects.
	StartOfCycle(cycle sim.Cycle)
	// EndOfCycle runs after routers and NIs: detection counters and
	// timeout logic live here.
	EndOfCycle(cycle sim.Cycle)
	// CanStartPacket gates the injection of a packet's head flit (remote
	// control's injection control). Called once per cycle for the packet
	// at the front of an injection queue until it returns true.
	CanStartPacket(ni *NI, p *message.Packet, cycle sim.Cycle) bool
	// OnFlitArrived observes every flit delivery at a router input and
	// returns extra buffer-write delay in cycles (remote control charges
	// +1 at boundary crossings).
	OnFlitArrived(node topology.NodeID, port topology.PortID, f message.Flit, cycle sim.Cycle) sim.Cycle
	// OnPacketEjected observes complete packet reassembly at an NI.
	OnPacketEjected(ni *NI, p *message.Packet, cycle sim.Cycle)
	// OnRouterIdle fires when the active-set kernel retires a router from
	// its per-cycle walk (no buffered flits remain). Schemes that keep
	// per-router state the naive kernel re-derives every cycle — UPP's
	// timeout counters — reset it here once instead of polling; the router
	// will not be observed again until a flit arrival wakes it. The naive
	// kernel never calls this hook.
	OnRouterIdle(node topology.NodeID, cycle sim.Cycle)
	// Diagnostic returns a human-readable snapshot of the scheme's live
	// protocol state (popup FSMs, tokens, control-plane buffers) for the
	// deadlock watchdog's stall report. Empty means nothing to report.
	Diagnostic() string
	// Inert reports that the scheme's StartOfCycle and EndOfCycle hooks
	// are provably no-ops right now AND will stay no-ops until some
	// network event re-engages the scheme — no live popup, outstanding
	// handshake, armed timeout or any other state that advances with the
	// clock. When everything else is idle too, the kernel uses this to
	// skip whole cycles in one jump (Network.Run/Drain), so a wrong true
	// here breaks bit-identity with the naive kernel: stateful schemes
	// must override it and err towards false. The BaseScheme default
	// (true) is only correct for schemes whose hooks are no-ops.
	Inert() bool
	// OnScheduledCall delivers a SchemeCall the scheme previously passed
	// to Network.ScheduleCall, at its scheduled cycle. Schemes that never
	// call ScheduleCall keep the no-op default.
	OnScheduledCall(c SchemeCall, cycle sim.Cycle)
	// Snapshot serializes the scheme's live protocol state (popup FSMs,
	// tokens, control-plane buffers) into a UPWS section; Restore
	// overwrites it from one written by the same scheme attached to an
	// identically-configured network. Stateless schemes keep the no-op
	// defaults. See DESIGN.md §14.
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader) error
}

// BaseScheme is a no-op Scheme for embedding; concrete schemes override
// the hooks they need.
type BaseScheme struct{}

// Policy returns the paper's static binding.
func (BaseScheme) Policy() routing.BoundaryPolicy { return routing.DefaultPolicy{} }

// Attach is a no-op.
func (BaseScheme) Attach(*Network) {}

// StartOfCycle is a no-op.
func (BaseScheme) StartOfCycle(sim.Cycle) {}

// EndOfCycle is a no-op.
func (BaseScheme) EndOfCycle(sim.Cycle) {}

// CanStartPacket admits every packet.
func (BaseScheme) CanStartPacket(*NI, *message.Packet, sim.Cycle) bool { return true }

// OnFlitArrived adds no delay.
func (BaseScheme) OnFlitArrived(topology.NodeID, topology.PortID, message.Flit, sim.Cycle) sim.Cycle {
	return 0
}

// OnPacketEjected is a no-op.
func (BaseScheme) OnPacketEjected(*NI, *message.Packet, sim.Cycle) {}

// OnRouterIdle is a no-op.
func (BaseScheme) OnRouterIdle(topology.NodeID, sim.Cycle) {}

// Diagnostic reports nothing.
func (BaseScheme) Diagnostic() string { return "" }

// Inert is always true for the no-op hooks: a scheme that overrides
// StartOfCycle or EndOfCycle with per-cycle state machines must override
// Inert too (see the interface comment).
func (BaseScheme) Inert() bool { return true }

// OnScheduledCall is a no-op (only schemes that use ScheduleCall see it).
func (BaseScheme) OnScheduledCall(SchemeCall, sim.Cycle) {}

// Snapshot writes nothing: the base scheme carries no mutable state.
func (BaseScheme) Snapshot(*snap.Writer) {}

// Restore reads nothing, mirroring Snapshot.
func (BaseScheme) Restore(*snap.Reader) error { return nil }

// None is the recovery-free fully-adaptive configuration: static-binding
// routing with no deadlock handling at all. Integration-induced deadlocks
// form and persist — it exists to demonstrate the problem UPP solves and
// to validate the deadlock watchdog.
type None struct{ BaseScheme }

// Name implements Scheme.
func (None) Name() string { return "none" }
