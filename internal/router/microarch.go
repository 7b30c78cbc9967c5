package router

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// Microarchitecture names for NewMicroarch, network.Config.RouterArch and
// the UPP_ROUTER environment variable.
const (
	// ArchIQ is the paper's 3-stage input-queued wormhole router — the
	// default, and the reference the golden tests pin bit-identically.
	ArchIQ = "iq"
	// ArchOQ is the output-queued variant: input VCs are shallower and
	// the freed slots form per-output staging FIFOs that the crossbar
	// fills with full speedup, eliminating switch-level head-of-line
	// blocking (arXiv 2303.10526's OQ router class).
	ArchOQ = "oq"
	// ArchVOQ is the virtual-output-queued variant: buffering is
	// identical to iq, but allocation considers every (input port, VC)
	// head per output — with the ejection port served first, the cheap
	// consumption-first avoidance lever of arXiv 2303.10526 — instead of
	// nominating a single VC per input port.
	ArchVOQ = "voq"
)

// Microarch is the narrow surface the rest of the system consumes from a
// router: the kernels drive ReceiveFlit/ReceiveCredit/Step/Idle, the
// schemes observe and manipulate the datapath through the epoch-stamped
// crossbar claims and the plugin API, network construction wires the NI
// sink, fault injection toggles ports, and the invariant checkers and
// debug renders read through the inspection accessors. Every concrete
// pipeline (iq, oq, voq) implements it; network construction goes through
// NewMicroarch.
type Microarch interface {
	// NodeID returns the topology node this router sits on.
	NodeID() topology.NodeID
	// TopoNode returns the full topology node (ports, coordinates).
	TopoNode() *topology.Node
	// Config returns the effective input-side configuration: BufferDepth
	// is the per-input-VC depth credits are counted against, which for
	// buffer-splitting variants (oq) is smaller than the configured
	// budget depth (see BufferBudget).
	Config() Config
	// Arch names the concrete microarchitecture (ArchIQ, ArchOQ, ArchVOQ).
	Arch() string

	// ReceiveFlit performs the buffer write of a flit arriving on
	// (port, vc); the flit becomes pipeline-eligible the following cycle.
	ReceiveFlit(port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle)
	// ReceiveCredit applies a credit arriving at output port port.
	ReceiveCredit(port topology.PortID, vc int8, delta int, free bool)
	// Step runs one cycle of the pipeline. It must honor the Step
	// locality contract (see Router.Step): mutate only this router's own
	// state and emit every cross-component effect through the sinks.
	Step(cycle sim.Cycle)
	// Idle reports that stepping would be a no-op; the active-set kernel
	// retires idle routers until an arrival wakes them.
	Idle() bool
	// Buffered returns the number of flits currently held anywhere in the
	// router (input VCs plus any output staging).
	Buffered() int

	// ClaimOutput reserves output port p for an out-of-band transfer
	// during the given cycle; claims are epoch-stamped and expire with
	// the cycle.
	ClaimOutput(p topology.PortID, cycle sim.Cycle) bool
	// ClaimInput reserves input port p's crossbar slot for the cycle.
	ClaimInput(p topology.PortID, cycle sim.Cycle) bool
	// OutputClaimed reports whether output p is claimed during the cycle.
	OutputClaimed(p topology.PortID, cycle sim.Cycle) bool
	// UpSentMask returns the bitmask of VNets that sent a flit through an
	// Up output during the given cycle (UPP detection resets on it).
	UpSentMask(cycle sim.Cycle) uint8
	// MarkUpSent records an out-of-band up-port transmission.
	MarkUpSent(v message.VNet, cycle sim.Cycle)

	// VCAt returns an input VC for inspection by plugins and tests.
	VCAt(port topology.PortID, vc int) *VC
	// PopFront forcibly dequeues the front flit of (port, vc) on behalf
	// of a scheme plugin; upstream credit bookkeeping matches a normal
	// send.
	PopFront(port topology.PortID, vcIdx int, cycle sim.Cycle) message.Flit
	// ForceReleaseVC resets an empty VC whose packet was diverted away
	// from it, freeing the upstream allocation via a zero-delta credit.
	ForceReleaseVC(port topology.PortID, vcIdx int, cycle sim.Cycle)
	// AllocateOutputVC grabs a free downstream VC of vnet on output out
	// for an out-of-band sender; -1 when none is free.
	AllocateOutputVC(out topology.PortID, vnet message.VNet) int8
	// CreditsAvailable reports whether output out has a credit for
	// downstream VC outVC.
	CreditsAvailable(out topology.PortID, outVC int8) bool
	// SendOnOutput sends f through output out into downstream VC outVC,
	// consuming one credit (bypassing any output staging).
	SendOnOutput(out topology.PortID, outVC int8, f message.Flit, cycle sim.Cycle)
	// SendDirect performs circuit-switched switch traversal for popup
	// flits and protocol signals (no buffers, credits or allocation).
	SendDirect(out topology.PortID)
	// EjectDirect hands a flit straight to the NI.
	EjectDirect(f message.Flit, cycle sim.Cycle)
	// Neighbor returns the (node, port) on the far side of output p.
	Neighbor(p topology.PortID) (topology.NodeID, topology.PortID)

	// SetLocal attaches the NI-facing sink.
	SetLocal(l LocalSink)
	// SetPortDown marks output p as crossing a transiently-down link.
	SetPortDown(p topology.PortID, down bool)
	// PortDown reports whether output p crosses a down link.
	PortDown(p topology.PortID) bool
	// SetPortFenced marks output p as draining toward a permanent link
	// removal: Waiting heads are never granted it, Active packets finish
	// crossing (dynamic reconfiguration's fence-then-cut protocol).
	SetPortFenced(p topology.PortID, fenced bool)
	// PortFenced reports whether output p is fenced for draining.
	PortFenced(p topology.PortID) bool
	// UnrouteFencedHeads sends every Waiting head aimed at a fenced port
	// back to route computation (the route function migrates it onto the
	// current routing epoch); returns the number of heads unrouted.
	UnrouteFencedHeads() int
	// PortQuiet reports that no allocation is in flight through output p
	// (no Waiting or Active input VC targets it and nothing is staged for
	// it) — the fence-then-cut protocol's cut condition.
	PortQuiet(p topology.PortID) bool

	// StatsSnapshot returns the datapath event counters.
	StatsSnapshot() Stats
	// NumPorts returns the router radix.
	NumPorts() int
	// PortSentOn returns the flits sent through output p.
	PortSentOn(p topology.PortID) uint64
	// OutCredits returns the credit count of output p toward downstream
	// VC vc.
	OutCredits(p topology.PortID, vc int) int16
	// OutBusy reports whether downstream VC vc of output p is allocated.
	OutBusy(p topology.PortID, vc int) bool
	// StagedFor counts flits staged at output p bound for downstream VC
	// vc — their credit is already consumed, so conservation checks add
	// this term. Zero for variants without output staging.
	StagedFor(p topology.PortID, vc int) int
	// StagedCount counts all flits staged at output p.
	StagedCount(p topology.PortID) int
	// ScanStaged calls fn for every staged flit (debug audits).
	ScanStaged(fn func(message.Flit))

	// Snapshot serializes the router's full mutable state into a UPWS
	// section; Restore overwrites it from one written by the same
	// microarchitecture on an identically-configured router (DESIGN.md
	// §14). Variants with extra storage (oq staging) extend the base
	// encoding.
	Snapshot(w *snap.Writer)
	Restore(r *snap.Reader) error
}

// Compile-time interface checks for all three variants.
var (
	_ Microarch = (*Router)(nil)
	_ Microarch = (*OQ)(nil)
	_ Microarch = (*VOQ)(nil)
)

// --- Router (iq) accessors --------------------------------------------------
//
// The input-queued pipeline predates the interface; these adapters expose
// its fields without touching the pipeline itself, keeping the default
// arch bit-identical to the pre-interface router.

// NodeID implements Microarch.
func (r *Router) NodeID() topology.NodeID { return r.ID }

// TopoNode implements Microarch.
func (r *Router) TopoNode() *topology.Node { return r.Node }

// Config implements Microarch.
func (r *Router) Config() Config { return r.Cfg }

// Arch implements Microarch.
func (r *Router) Arch() string { return ArchIQ }

// StatsSnapshot implements Microarch.
func (r *Router) StatsSnapshot() Stats { return r.Stats }

// NumPorts implements Microarch.
func (r *Router) NumPorts() int { return len(r.In) }

// PortSentOn implements Microarch.
func (r *Router) PortSentOn(p topology.PortID) uint64 { return r.PortSent[p] }

// OutCredits implements Microarch.
func (r *Router) OutCredits(p topology.PortID, vc int) int16 { return r.Out[p].Credits[vc] }

// OutBusy implements Microarch.
func (r *Router) OutBusy(p topology.PortID, vc int) bool { return r.Out[p].Busy[vc] }

// StagedFor implements Microarch; the input-queued router stages nothing.
func (r *Router) StagedFor(topology.PortID, int) int { return 0 }

// StagedCount implements Microarch.
func (r *Router) StagedCount(topology.PortID) int { return 0 }

// ScanStaged implements Microarch.
func (r *Router) ScanStaged(func(message.Flit)) {}

// --- Equal buffer budget ----------------------------------------------------

// BufferBudget returns the total flit-slot budget per router port that
// every microarchitecture must hit: NumVCs input VCs of BufferDepth flits
// each. Variants that buffer at outputs carve their staging capacity out
// of this same budget (LayoutFor), so scheme × arch comparisons are never
// apples-to-oranges on storage.
func BufferBudget(cfg Config) int { return cfg.NumVCs() * cfg.BufferDepth }

// BufferLayout describes how one microarchitecture splits BufferBudget
// between input VCs and output staging.
type BufferLayout struct {
	Arch string
	// InputDepth is the per-input-VC buffer depth (what credits count).
	InputDepth int
	// StageSlots is the per-output-port staging FIFO capacity; zero for
	// variants without output queues.
	StageSlots int
}

// TotalPerPort returns the layout's flit slots per port; equal to
// BufferBudget(cfg) for every valid layout.
func (l BufferLayout) TotalPerPort(cfg Config) int {
	return cfg.NumVCs()*l.InputDepth + l.StageSlots
}

// LayoutFor returns arch's split of the equal buffer budget, or an error
// for unknown or unsupportable combinations.
func LayoutFor(arch string, cfg Config) (BufferLayout, error) {
	switch arch {
	case ArchIQ, ArchVOQ:
		// Both keep the full budget at the inputs; voq differs only in
		// allocation.
		return BufferLayout{Arch: arch, InputDepth: cfg.BufferDepth}, nil
	case ArchOQ:
		if cfg.VCT {
			return BufferLayout{}, fmt.Errorf("router: arch %q does not support virtual cut-through (whole-packet staging would double-buffer)", arch)
		}
		if cfg.BufferDepth < 2 {
			return BufferLayout{}, fmt.Errorf("router: arch %q needs BufferDepth >= 2 to split buffering between inputs and outputs", arch)
		}
		// Half of each input VC's depth moves to the output side; the
		// staging FIFO is shared across the port's VCs.
		h := cfg.BufferDepth / 2
		return BufferLayout{Arch: arch, InputDepth: cfg.BufferDepth - h, StageSlots: cfg.NumVCs() * h}, nil
	default:
		return BufferLayout{}, fmt.Errorf("router: unknown arch %q (want %q, %q or %q)", arch, ArchIQ, ArchOQ, ArchVOQ)
	}
}

// NewMicroarch constructs the router variant named by arch for node n.
// Every variant receives the same Config; buffer-splitting variants derive
// their effective per-VC depth via LayoutFor so the total budget matches
// BufferBudget(cfg) exactly.
func NewMicroarch(arch string, n *topology.Node, cfg Config, sink EventSink, local LocalSink, route RouteFunc, rng *sim.RNG) (Microarch, error) {
	lay, err := LayoutFor(arch, cfg)
	if err != nil {
		return nil, err
	}
	switch arch {
	case ArchVOQ:
		return NewVOQ(n, cfg, sink, local, route, rng), nil
	case ArchOQ:
		return NewOQ(n, cfg, lay, sink, local, route, rng), nil
	default:
		return New(n, cfg, sink, local, route, rng), nil
	}
}
