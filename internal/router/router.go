package router

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// EventSink is how a router hands flits and credits to the network fabric
// for time-delayed delivery. The network implements it.
type EventSink interface {
	// DeliverFlit schedules f's buffer write into VC vc of input port port
	// of router to at the given cycle.
	DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle)
	// DeliverCredit schedules a credit arrival at router to's output port
	// port for downstream VC vc: delta buffer slots (0 or 1) and, when
	// free is set, the downstream VC has fully drained and may be
	// reallocated. Credits addressed to the local port reach the NI.
	DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle)
}

// LocalSink is the NI side of a router's local port.
type LocalSink interface {
	// CanAcceptHead reports whether a new packet may start ejecting: a
	// free, unreserved ejection-queue entry exists for its VNet.
	CanAcceptHead(p *message.Packet, cycle sim.Cycle) bool
	// AcceptFlit delivers an ejecting flit; arrival is when the NI sees
	// it.
	AcceptFlit(f message.Flit, arrival sim.Cycle)
}

// RouteFunc computes the output port for a packet whose head flit is at
// router cur, having arrived through input port inPort (route computation
// stage). Table-routed schemes (composable routing) are channel-indexed
// and need the input port; algorithmic routing ignores it.
type RouteFunc func(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error)

// Stats counts datapath events for the throughput and energy models.
type Stats struct {
	BufferWrites  uint64
	BufferReads   uint64
	CrossbarTravs uint64
	LinkTravs     uint64
	SARequests    uint64
	SAGrants      uint64
	// UpFlits counts flits sent through Up output ports (vertical
	// utilization; UPP detection resets hang off it).
	UpFlits uint64
}

// InPort is one input port: a set of virtual channels.
type InPort struct {
	VCs []VC
	// buffered counts flits across the port's VCs so allocation can skip
	// empty ports.
	buffered int
}

// OutPort tracks the credit and allocation state of the downstream input
// port this output feeds.
type OutPort struct {
	// Credits per downstream VC.
	Credits []int16
	// Busy marks downstream VCs currently allocated to a packet.
	Busy []bool
	rr   int // round-robin pointer over input ports for switch allocation
}

// Router is one router instance.
type Router struct {
	ID   topology.NodeID
	Node *topology.Node
	Cfg  Config

	In  []InPort
	Out []OutPort

	sink  EventSink
	local LocalSink
	route RouteFunc
	rng   *sim.RNG

	// Per-cycle crossbar claims are epoch-stamped (cycle+1 = "claimed
	// through that cycle") rather than cleared by a start-of-cycle reset,
	// so a router the active-set kernel skips for thousands of idle cycles
	// needs no per-cycle bookkeeping to keep its claim state consistent.
	outClaimedAt []sim.Cycle
	inClaimedAt  []sim.Cycle
	inRR         []int // per input port: round-robin pointer over VCs

	// PortSent counts flits sent through each output port (link
	// utilization and load-balance analysis).
	PortSent []uint64

	// upSent records which VNets sent a flit through an Up output port
	// during cycle upSentAt-1 (UPP's timeout counters reset on it); the
	// epoch stamp expires it without a per-cycle reset.
	upSent   uint8
	upSentAt sim.Cycle

	// buffered counts flits currently held in this router's VCs; idle
	// routers are skipped by the simulation loop.
	buffered int

	// downOut is a bitmask of output ports whose link is transiently down
	// (runtime fault injection). Switch allocation skips them; the mask is
	// zero in fault-free runs, so the hot-path check never fires.
	downOut uint32

	// fencedOut is a bitmask of output ports being drained ahead of a
	// permanent link removal (dynamic reconfiguration). Unlike downOut it
	// blocks only new wormholes: Waiting heads are never granted a fenced
	// port (and are migrated onto the new routing by UnrouteFencedHeads),
	// while Active packets finish crossing so the cut never splits a worm.
	fencedOut uint32

	Stats Stats
}

// New constructs a router for node n.
func New(n *topology.Node, cfg Config, sink EventSink, local LocalSink, route RouteFunc, rng *sim.RNG) *Router {
	r := &Router{
		ID:   n.ID,
		Node: n,
		Cfg:  cfg,
		In:   make([]InPort, len(n.Ports)),
		Out:  make([]OutPort, len(n.Ports)),

		sink:  sink,
		local: local,
		route: route,
		rng:   rng,

		outClaimedAt: make([]sim.Cycle, len(n.Ports)),
		inClaimedAt:  make([]sim.Cycle, len(n.Ports)),
		inRR:         make([]int, len(n.Ports)),
		PortSent:     make([]uint64, len(n.Ports)),
	}
	nvc := cfg.NumVCs()
	for pi := range r.In {
		r.In[pi].VCs = make([]VC, nvc)
		for vi := range r.In[pi].VCs {
			r.In[pi].VCs[vi].init(cfg.BufferDepth)
		}
		out := &r.Out[pi]
		out.Credits = make([]int16, nvc)
		out.Busy = make([]bool, nvc)
		for vi := range out.Credits {
			out.Credits[vi] = int16(cfg.BufferDepth)
		}
	}
	return r
}

// SetLocal attaches the NI-facing sink. The router and its NI reference
// each other, so the sink is wired after construction.
func (r *Router) SetLocal(l LocalSink) { r.local = l }

// Buffered returns the number of flits currently buffered in the router.
func (r *Router) Buffered() int { return r.buffered }

// VCAt returns the VC for inspection by plugins and tests.
func (r *Router) VCAt(port topology.PortID, vc int) *VC { return &r.In[port].VCs[vc] }

// ReceiveFlit performs the buffer write of a flit arriving on (port, vc).
// The flit becomes pipeline-eligible the following cycle.
func (r *Router) ReceiveFlit(port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	r.In[port].VCs[vc].push(f, cycle+1)
	r.In[port].buffered++
	r.buffered++
	r.Stats.BufferWrites++
}

// ReceiveCredit applies a credit arriving at output port port.
func (r *Router) ReceiveCredit(port topology.PortID, vc int8, delta int, free bool) {
	out := &r.Out[port]
	out.Credits[vc] += int16(delta)
	if out.Credits[vc] > int16(r.Cfg.BufferDepth) {
		panic("router: credit overflow (flow control bug)")
	}
	if free {
		out.Busy[vc] = false
	}
}

// Idle reports whether the router has no buffered flits — nothing for
// Step to do. The active-set kernel retires idle routers from its
// per-cycle walk until a flit arrival wakes them again.
func (r *Router) Idle() bool { return r.buffered == 0 }

// UpSentMask returns the bitmask of VNets that sent a flit through an Up
// output during the given cycle; the mask expires with the cycle.
func (r *Router) UpSentMask(cycle sim.Cycle) uint8 {
	if r.upSentAt != cycle+1 {
		return 0
	}
	return r.upSent
}

// MarkUpSent records an out-of-band up-port transmission (popup flits)
// during the given cycle.
func (r *Router) MarkUpSent(v message.VNet, cycle sim.Cycle) {
	if r.upSentAt != cycle+1 {
		r.upSent = 0
		r.upSentAt = cycle + 1
	}
	r.upSent |= 1 << uint(v)
}

// ClaimOutput reserves output port p for an out-of-band transfer (popup
// flit or protocol signal) during the given cycle. It reports whether the
// claim succeeded; claims expire with the cycle.
func (r *Router) ClaimOutput(p topology.PortID, cycle sim.Cycle) bool {
	if r.outClaimedAt[p] > cycle {
		return false
	}
	r.outClaimedAt[p] = cycle + 1
	return true
}

// ClaimInput reserves input port p's crossbar slot for the given cycle.
func (r *Router) ClaimInput(p topology.PortID, cycle sim.Cycle) bool {
	if r.inClaimedAt[p] > cycle {
		return false
	}
	r.inClaimedAt[p] = cycle + 1
	return true
}

// OutputClaimed reports whether output p is claimed during the given cycle.
func (r *Router) OutputClaimed(p topology.PortID, cycle sim.Cycle) bool {
	return r.outClaimedAt[p] > cycle
}

// SetPortDown marks output port p as crossing a transiently-down link
// (runtime fault injection). While set, switch allocation never grants
// the port; plugin senders (UPP signals and popup flits) must check
// PortDown before SendDirect. The network toggles it from a fault plan's
// link-flap schedule on both endpoints of the link.
func (r *Router) SetPortDown(p topology.PortID, down bool) {
	if down {
		r.downOut |= 1 << uint(p)
	} else {
		r.downOut &^= 1 << uint(p)
	}
}

// PortDown reports whether output port p crosses a transiently-down link.
func (r *Router) PortDown(p topology.PortID) bool {
	return r.downOut&(1<<uint(p)) != 0
}

// SetPortFenced marks output port p as draining toward a permanent link
// removal. While fenced, switch allocation grants the port to Active
// packets only — no new wormhole may start crossing. The reconfiguration
// engine fences both endpoints of a dying link, migrates the Waiting
// heads, waits for the Active worms to finish, then cuts the link.
func (r *Router) SetPortFenced(p topology.PortID, fenced bool) {
	if fenced {
		r.fencedOut |= 1 << uint(p)
	} else {
		r.fencedOut &^= 1 << uint(p)
	}
}

// PortFenced reports whether output port p is fenced for draining.
func (r *Router) PortFenced(p topology.PortID) bool {
	return r.fencedOut&(1<<uint(p)) != 0
}

// UnrouteFencedHeads clears the route of every Waiting head whose computed
// output port is fenced, returning it to the route-computation stage: the
// next Step re-routes the packet, and the network's route function
// migrates it onto the current routing epoch (away from the dying link).
// Active packets (downstream VC already allocated) are left alone — they
// must finish crossing. Held VCs belong to a scheme plugin and are
// skipped. Returns the number of heads unrouted.
func (r *Router) UnrouteFencedHeads() int {
	if r.fencedOut == 0 {
		return 0
	}
	n := 0
	for pi := range r.In {
		for vi := range r.In[pi].VCs {
			vc := &r.In[pi].VCs[vi]
			if vc.Hold || vc.State != VCWaiting || vc.OutPort == topology.InvalidPort {
				continue
			}
			if r.fencedOut&(1<<uint(vc.OutPort)) == 0 {
				continue
			}
			vc.State = VCIdle
			vc.OutPort = topology.InvalidPort
			vc.routed = false
			n++
		}
	}
	return n
}

// PortQuiet reports whether output port p has no allocation in flight:
// no input VC is Waiting on or Actively streaming through it, and (in
// staged microarchitectures) nothing staged for it. The reconfiguration
// engine polls it on a fenced port to learn when the link may be cut
// without splitting a wormhole.
func (r *Router) PortQuiet(p topology.PortID) bool {
	for pi := range r.In {
		for vi := range r.In[pi].VCs {
			vc := &r.In[pi].VCs[vi]
			if vc.State != VCIdle && vc.OutPort == p {
				return false
			}
		}
	}
	return true
}

// Neighbor returns the (node, port) on the far side of output port p.
func (r *Router) Neighbor(p topology.PortID) (topology.NodeID, topology.PortID) {
	pt := &r.Node.Ports[p]
	return pt.Neighbor, pt.NeighborPort
}

// Step runs one cycle of the router pipeline: route computation for fresh
// head flits, separable (input-first then output) round-robin switch
// allocation with VC selection, and switch traversal for the winners.
//
// Locality contract: Step mutates only this router's own state (VCs,
// claims, credits, stats, its split RNG) and emits every cross-component
// effect through r.sink (DeliverFlit/DeliverCredit) or r.local
// (AcceptFlit). Its only reads of other components are the attached NI's
// ejection occupancy (CanAcceptHead) and immutable topology/route tables —
// it never reads another router. The router tests rely on this to drive
// Step through fake sinks.
func (r *Router) Step(cycle sim.Cycle) {
	if r.buffered == 0 {
		return
	}
	nports := len(r.In)

	// Input arbitration: each unclaimed input port nominates one VC.
	type nominee struct {
		port topology.PortID
		vc   int
	}
	var nominees [16]nominee // radix is small; avoid allocation
	nn := 0
	for pi := 0; pi < nports; pi++ {
		if r.inClaimedAt[pi] > cycle || r.In[pi].buffered == 0 {
			continue
		}
		if vi := r.pickInputVC(topology.PortID(pi), cycle); vi >= 0 {
			nominees[nn] = nominee{topology.PortID(pi), vi}
			nn++
			r.Stats.SARequests++
		}
	}
	if nn == 0 {
		return
	}
	// Output arbitration: for each output port, grant one nominee.
	for oi := 0; oi < nports; oi++ {
		if r.outClaimedAt[oi] > cycle {
			continue
		}
		out := &r.Out[oi]
		granted := -1
		// Round-robin over input ports starting after the last grant.
		for k := 1; k <= nports; k++ {
			pi := (out.rr + k) % nports
			for ni := 0; ni < nn; ni++ {
				if int(nominees[ni].port) == pi &&
					r.In[pi].VCs[nominees[ni].vc].OutPort == topology.PortID(oi) {
					granted = ni
					break
				}
			}
			if granted >= 0 {
				out.rr = pi
				break
			}
		}
		if granted < 0 {
			continue
		}
		nom := nominees[granted]
		r.grant(nom.port, nom.vc, cycle)
		// The winning input port leaves the race for other outputs.
		nominees[granted] = nominees[nn-1]
		nn--
		if nn == 0 {
			break
		}
	}
}

// pickInputVC selects, round-robin, one VC of input port pi that can use
// the crossbar this cycle; it also runs route computation for fresh heads.
// Returns -1 when no VC is eligible.
func (r *Router) pickInputVC(pi topology.PortID, cycle sim.Cycle) int {
	vcs := r.In[pi].VCs
	n := len(vcs)
	start := r.inRR[pi]
	chosen := -1
	for k := 1; k <= n; k++ {
		vi := (start + k) % n
		vc := &vcs[vi]
		if vc.Hold {
			// A scheme plugin owns this VC's draining.
			continue
		}
		f, ok := vc.FrontReady(cycle)
		if !ok {
			continue
		}
		if f.Pkt.Popup && int16(r.Node.Chiplet) == f.Pkt.DstChiplet {
			// Inside the destination chiplet, popup flits bypass switch
			// allocation and drain through the circuit (Sec. V-C).
			// Upstream — the interposer mesh and the source chiplet — the
			// packet's trailing flits still flow normally toward the
			// origin interposer router.
			continue
		}
		// Route computation once per packet per router.
		if f.IsHead() && !vc.routed {
			op, err := r.route(r.ID, pi, f.Pkt)
			if err != nil {
				panic(fmt.Sprintf("router %d (x=%d y=%d chiplet %d) cycle %d: route computation failed for pkt %d (%s %d->%d) at input port %d: %v",
					r.ID, r.Node.X, r.Node.Y, r.Node.Chiplet, cycle, f.Pkt.ID, f.Pkt.VNet, f.Pkt.Src, f.Pkt.Dst, pi, err))
			}
			vc.OutPort = op
			vc.State = VCWaiting
			vc.routed = true
		}
		if vc.OutPort == topology.InvalidPort || r.outClaimedAt[vc.OutPort] > cycle ||
			r.downOut&(1<<uint(vc.OutPort)) != 0 {
			continue
		}
		switch vc.State {
		case VCWaiting:
			if r.fencedOut&(1<<uint(vc.OutPort)) != 0 {
				// The port is draining toward a permanent cut: no new
				// wormhole may start crossing (the head is migrated onto
				// the new routing by UnrouteFencedHeads).
				continue
			}
			if !r.headCanAdvance(vc, f, cycle) {
				continue
			}
		case VCActive:
			if vc.OutPort != topology.LocalPort && r.Out[vc.OutPort].Credits[vc.OutVC] <= 0 {
				continue
			}
		default:
			continue
		}
		chosen = vi
		r.inRR[pi] = vi
		break
	}
	return chosen
}

// headCanAdvance reports whether a Waiting head flit could be granted:
// the local sink accepts it, or a free downstream VC with credit exists.
func (r *Router) headCanAdvance(vc *VC, f message.Flit, cycle sim.Cycle) bool {
	if vc.OutPort == topology.LocalPort {
		return r.local.CanAcceptHead(f.Pkt, cycle)
	}
	out := &r.Out[vc.OutPort]
	vnet := f.Pkt.VNet
	need := int16(1)
	if r.Cfg.VCT {
		// Virtual cut-through: the downstream buffer must hold the whole
		// packet before the head moves.
		need = int16(f.Pkt.Size)
	}
	for k := 0; k < r.Cfg.VCsPerVNet; k++ {
		dv := r.Cfg.VCIndex(vnet, k)
		if !out.Busy[dv] && out.Credits[dv] >= need {
			return true
		}
	}
	return false
}

// grant performs VC selection (heads) and switch traversal for the winner.
func (r *Router) grant(pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &r.In[pi].VCs[vi]
	f, _, _ := vc.Front()
	if vc.State == VCWaiting {
		if vc.OutPort != topology.LocalPort {
			// VC selection: pick a random free downstream VC of the
			// packet's VNet (the paper's randomized VCS stage).
			out := &r.Out[vc.OutPort]
			vnet := f.Pkt.VNet
			need := int16(1)
			if r.Cfg.VCT {
				need = int16(f.Pkt.Size)
			}
			// Fixed-size candidate array (VCsPerVNet is bounded by
			// Config.Validate): a make() here would allocate on every
			// head grant.
			var free [maxVCsPerVNet]int8
			nf := 0
			for k := 0; k < r.Cfg.VCsPerVNet; k++ {
				dv := int8(r.Cfg.VCIndex(vnet, k))
				if !out.Busy[dv] && out.Credits[dv] >= need {
					free[nf] = dv
					nf++
				}
			}
			vc.OutVC = free[r.rng.Intn(nf)]
			out.Busy[vc.OutVC] = true
		}
		vc.State = VCActive
	}
	r.Stats.SAGrants++
	r.sendFront(pi, vi, cycle)
}

// sendFront dequeues the front flit of (pi, vi) and sends it through the
// crossbar to the VC's allocated output. Credits flow upstream; tail flits
// release the VC.
func (r *Router) sendFront(pi topology.PortID, vi int, cycle sim.Cycle) {
	vc := &r.In[pi].VCs[vi]
	f := vc.pop()
	r.In[pi].buffered--
	r.buffered--
	r.Stats.BufferReads++
	r.Stats.CrossbarTravs++
	out := vc.OutPort
	outVC := vc.OutVC
	tail := f.IsTail()
	if tail {
		// All flits of the packet passed through; the VC is reusable. The
		// downstream allocation is freed by the downstream router's own
		// tail departure (free credit), not here.
		vc.reset()
	}
	r.creditUpstream(pi, int8(vi), 1, tail, cycle)
	r.PortSent[out]++
	if out == topology.LocalPort {
		r.local.AcceptFlit(f, cycle+1)
		return
	}
	r.Stats.LinkTravs++
	if r.Node.Ports[out].Dir == topology.Up {
		r.Stats.UpFlits++
		r.MarkUpSent(f.Pkt.VNet, cycle)
	}
	o := &r.Out[out]
	o.Credits[outVC]--
	if o.Credits[outVC] < 0 {
		panic("router: sent flit without credit")
	}
	nb, nbPort := r.Neighbor(out)
	r.sink.DeliverFlit(nb, nbPort, outVC, f, cycle+1+sim.Cycle(r.Cfg.LinkLatency))
}

// creditUpstream returns a buffer slot (and optionally the whole VC) to
// whoever feeds input port pi — the upstream router, or the NI for the
// local port.
func (r *Router) creditUpstream(pi topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	pt := &r.Node.Ports[pi]
	if pi == topology.LocalPort {
		r.sink.DeliverCredit(r.ID, topology.LocalPort, vc, delta, free, cycle+1)
		return
	}
	r.sink.DeliverCredit(pt.Neighbor, pt.NeighborPort, vc, delta, free, cycle+1)
}

// --- Plugin API ------------------------------------------------------------

// PopFront forcibly dequeues the front flit of (port, vc) on behalf of a
// scheme plugin (popup circuit drain, boundary-buffer absorption). Credit
// bookkeeping toward upstream is identical to a normal send; if the flit
// is the tail the VC resets.
func (r *Router) PopFront(port topology.PortID, vcIdx int, cycle sim.Cycle) message.Flit {
	vc := &r.In[port].VCs[vcIdx]
	f := vc.pop()
	r.In[port].buffered--
	r.buffered--
	r.Stats.BufferReads++
	tail := f.IsTail()
	if tail {
		vc.reset()
	}
	r.creditUpstream(port, int8(vcIdx), 1, tail, cycle)
	return f
}

// ForceReleaseVC resets an empty VC whose packet was diverted away from it
// (popup drain of a partly-transmitted packet: the remaining flits bypass
// this VC, so its tail will never arrive to free the upstream allocation).
// Upstream learns the VC is free through a zero-delta free credit. The VC
// may still be in the Idle state — a drained head that never reached route
// computation leaves it Idle while the upstream allocation stands — so the
// free credit is sent unconditionally; the caller asserts the upstream
// allocation exists.
func (r *Router) ForceReleaseVC(port topology.PortID, vcIdx int, cycle sim.Cycle) {
	vc := &r.In[port].VCs[vcIdx]
	if !vc.Empty() {
		panic("router: ForceReleaseVC on non-empty VC")
	}
	vc.reset()
	r.creditUpstream(port, int8(vcIdx), 0, true, cycle)
}

// AllocateOutputVC grabs a free downstream VC (with full credit) of vnet on
// output out for an out-of-band sender (e.g. remote control's boundary
// buffer). Returns -1 if none is free.
func (r *Router) AllocateOutputVC(out topology.PortID, vnet message.VNet) int8 {
	o := &r.Out[out]
	for k := 0; k < r.Cfg.VCsPerVNet; k++ {
		dv := int8(r.Cfg.VCIndex(vnet, k))
		if !o.Busy[dv] && o.Credits[dv] > 0 {
			o.Busy[dv] = true
			return dv
		}
	}
	return -1
}

// CreditsAvailable reports whether output out has a credit for downstream
// VC outVC.
func (r *Router) CreditsAvailable(out topology.PortID, outVC int8) bool {
	return r.Out[out].Credits[outVC] > 0
}

// SendOnOutput sends f through output out into downstream VC outVC,
// consuming one credit. The caller must have claimed the output and hold
// the allocation from AllocateOutputVC.
func (r *Router) SendOnOutput(out topology.PortID, outVC int8, f message.Flit, cycle sim.Cycle) {
	o := &r.Out[out]
	o.Credits[outVC]--
	if o.Credits[outVC] < 0 {
		panic("router: SendOnOutput without credit")
	}
	r.Stats.CrossbarTravs++
	r.Stats.LinkTravs++
	r.PortSent[out]++
	if r.Node.Ports[out].Dir == topology.Up {
		r.Stats.UpFlits++
		r.MarkUpSent(f.Pkt.VNet, cycle)
	}
	nb, nbPort := r.Neighbor(out)
	r.sink.DeliverFlit(nb, nbPort, outVC, f, cycle+1+sim.Cycle(r.Cfg.LinkLatency))
}

// SendDirect sends f through output out bypassing buffers, credits and
// allocation — circuit-switched switch traversal for popup flits and
// protocol signals. The caller must have claimed the output and is
// responsible for delivering the flit on the far side (plugins keep their
// own latches).
func (r *Router) SendDirect(out topology.PortID) {
	r.Stats.CrossbarTravs++
	if out != topology.LocalPort {
		r.Stats.LinkTravs++
		if r.Node.Ports[out].Dir == topology.Up {
			r.Stats.UpFlits++
		}
	}
}

// EjectDirect hands a flit straight to the NI (popup ejection into a
// reserved entry). The caller must have claimed the local output.
func (r *Router) EjectDirect(f message.Flit, cycle sim.Cycle) {
	r.Stats.CrossbarTravs++
	r.local.AcceptFlit(f, cycle+1)
}
