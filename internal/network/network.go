// Package network assembles routers, links and network interfaces into a
// runnable chiplet-system NoC and advances it cycle by cycle. Deadlock
// freedom schemes (UPP, composable routing, remote control) plug in via
// the Scheme interface.
package network

import (
	"fmt"
	"os"
	"slices"

	"uppnoc/internal/message"
	"uppnoc/internal/router"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Kernel names for Config.Kernel and the UPP_KERNEL environment variable.
const (
	// KernelActive is the active-set scheduler: only routers and NIs with
	// pending work are stepped each cycle. The default.
	KernelActive = "active"
	// KernelNaive is the exhaustive every-component-every-cycle walk, kept
	// as the reference the active-set kernel is tested against and as a
	// debug escape hatch (UPP_KERNEL=naive). Both kernels produce
	// bit-identical simulations.
	KernelNaive = "naive"
)

// Config parameterizes a network instance.
type Config struct {
	Router router.Config
	// RouterArch selects the router microarchitecture: router.ArchIQ (the
	// default when empty), router.ArchOQ or router.ArchVOQ. When empty,
	// the UPP_ROUTER environment variable is consulted before falling
	// back to the input-queued router. All variants are normalized to the
	// same per-port buffer budget (router.BufferBudget).
	RouterArch string
	// EjectionDepth is the per-VNet ejection queue capacity in packets.
	EjectionDepth int
	// Seed drives all randomized decisions (VC selection, traffic).
	Seed uint64
	// UseUpDown selects up*/down* local routing instead of XY (needed on
	// faulty systems).
	UseUpDown bool
	// Adaptive selects minimal-adaptive odd-even local routing with
	// credit-aware output selection — the "fully adaptive network" UPP's
	// recovery framework enables (deadlock-free within each layer by the
	// odd-even turn model; integration-induced deadlocks recovered by the
	// scheme). Mutually exclusive with UseUpDown.
	Adaptive bool
	// Kernel selects the cycle kernel: KernelActive (the default when
	// empty) or KernelNaive. When empty, the UPP_KERNEL environment
	// variable is consulted before falling back to the active-set kernel.
	Kernel string
	// DisablePool turns off packet recycling: AllocPacket falls back to
	// plain heap allocation and nothing is released. The simulation is
	// bit-identical either way (the golden equivalence tests prove it);
	// the switch exists as a debug escape hatch and for before/after
	// allocation measurements. The UPP_NOPOOL environment variable (any
	// non-empty value) disables pooling the same way.
	DisablePool bool
}

// DefaultConfig mirrors Table II with 1 VC per VNet.
func DefaultConfig() Config {
	return Config{Router: router.DefaultConfig(), EjectionDepth: 4, Seed: 1}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Router.Validate(); err != nil {
		return err
	}
	if c.EjectionDepth < 1 {
		return fmt.Errorf("network: EjectionDepth must be >= 1")
	}
	if c.UseUpDown && c.Adaptive {
		return fmt.Errorf("network: UseUpDown and Adaptive are mutually exclusive")
	}
	switch c.Kernel {
	case "", KernelActive, KernelNaive:
	default:
		return fmt.Errorf("network: unknown kernel %q (want %q or %q)", c.Kernel, KernelActive, KernelNaive)
	}
	switch c.RouterArch {
	case "", router.ArchIQ, router.ArchOQ, router.ArchVOQ:
		if c.RouterArch != "" {
			// Arch-specific feasibility (oq needs a splittable depth and
			// no VCT) surfaces here rather than mid-construction.
			if _, err := router.LayoutFor(c.RouterArch, c.Router); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("network: unknown router arch %q (want %q, %q or %q)", c.RouterArch, router.ArchIQ, router.ArchOQ, router.ArchVOQ)
	}
	// The event wheel must cover the longest schedulable delay: a flit's
	// pipeline traversal plus its link flight. Surfacing the bound here
	// turns a runtime wheel-horizon panic into a configuration error.
	if c.Router.LinkLatency+router.PipelineDepth >= wheelSize {
		return fmt.Errorf("network: LinkLatency %d + pipeline depth %d reaches the %d-cycle event wheel horizon",
			c.Router.LinkLatency, router.PipelineDepth, wheelSize)
	}
	return nil
}

// event kinds in the delivery wheel. The values are UPWS wire values.
const (
	evFlit = iota
	evCredit
	// evRetired once carried a scheme closure. It is never produced, and
	// ReadSnapshot rejects it.
	evRetired
	evSchemeCall
)

type event struct {
	kind  uint8
	to    topology.NodeID
	port  topology.PortID
	vc    int8
	delta int8
	free  bool
	flit  message.Flit
	// callIdx indexes callWheel[slot] for evSchemeCall events. Keeping the
	// SchemeCall payload out of event keeps the struct small so wheel slot
	// capacities stabilise (see TestSteadyStateZeroAlloc).
	callIdx int32
}

// wheelSize bounds the maximum event latency (link latency + pipeline).
const wheelSize = 128

// Network is a complete simulated system.
type Network struct {
	Topo    *topology.Topology
	Cfg     Config
	Routers []router.Microarch
	NIs     []*NI

	scheme        Scheme
	hier          *routing.Hierarchical
	routeOverride router.RouteFunc
	rng           *sim.RNG

	cycle sim.Cycle
	wheel [wheelSize][]event
	// callWheel carries the SchemeCall payloads for evSchemeCall events in
	// the matching wheel slot; event.callIdx points into it.
	callWheel [wheelSize][]SchemeCall
	nextID    uint64
	tracer    Tracer

	// pool recycles packets (see internal/message.Pool for the ownership
	// protocol); pooling caches the resolved DisablePool/UPP_NOPOOL
	// switch.
	pool    message.Pool
	pooling bool

	// Active-set scheduling state (KernelActive): a component is awake
	// from the wake event that gave it work until the retirement pass
	// finds it idle. The per-cycle walk visits awake components in
	// ascending NodeID order — the naive kernel's order — so the two
	// kernels are bit-identical.
	//
	// The awake sets are held as explicit ID lists next to the membership
	// flags, so the per-cycle walk is O(awake) instead of an O(total-nodes)
	// flag scan — on a 8k-router scale system at low load that is the
	// difference between touching 16 KiB of bools four times a cycle and
	// touching a handful of list entries. routerList is sorted ascending at
	// walk time (router wakes only happen at event delivery, before the
	// walk); niList is a sorted prefix plus a tail of mid-cycle wakes, and
	// the NI walk merges same-pass wakes in through niHeap (see walkNIs).
	kernel      string
	arch        string
	routerAwake []bool
	niAwake     []bool
	routerList  []int32
	niList      []int32
	niHeap      []int32
	niWalkPos   int32
	inNIWalk    bool

	// wheelPending counts events resident in the wheel; when it is zero and
	// nothing is awake, whole cycles are provably no-ops and Run/Drain skip
	// them in one jump (see skipIdleCycles).
	wheelPending int

	Stats   Stats
	latHist LatencyHistogram

	// lastEject supports deadlock detection in tests and the drain loop.
	lastEject sim.Cycle

	// faults is the optional runtime fault injector (nil in healthy runs;
	// see faultinject.go and internal/faults).
	faults FaultInjector

	// Dynamic-reconfiguration state (reconfigctl.go, internal/reconfig).
	// routeEpoch is the current routing epoch; prevHier holds the previous
	// epoch's tables while packets stamped with the old epoch are still in
	// flight. epochLive counts live packets per epoch parity (at most two
	// epochs coexist — the engine serializes transitions).
	routeEpoch  uint32
	prevHier    *routing.Hierarchical
	injectHold  bool
	fencedLinks int
	epochLive   [2]int64
	// restoring suppresses fault-injector side effects while ReadSnapshot
	// resyncs the injector's cursor (see snapshot.go and reconfig.Engine).
	restoring bool
}

// New builds a network over t with the given scheme. The scheme's boundary
// policy governs egress selection; its hooks are wired into the cycle loop.
func New(t *topology.Topology, cfg Config, scheme Scheme) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := &Network{
		Topo:   t,
		Cfg:    cfg,
		scheme: scheme,
		rng:    sim.NewRNG(cfg.Seed),
	}
	n.kernel = cfg.Kernel
	if n.kernel == "" {
		n.kernel = os.Getenv("UPP_KERNEL")
	}
	switch n.kernel {
	case "":
		n.kernel = KernelActive
	case KernelActive, KernelNaive:
	default:
		return nil, fmt.Errorf("network: unknown kernel %q (from UPP_KERNEL; want %q or %q)",
			n.kernel, KernelActive, KernelNaive)
	}
	n.arch = cfg.RouterArch
	if n.arch == "" {
		n.arch = os.Getenv("UPP_ROUTER")
	}
	switch n.arch {
	case "":
		n.arch = router.ArchIQ
	case router.ArchIQ, router.ArchOQ, router.ArchVOQ:
		if _, err := router.LayoutFor(n.arch, cfg.Router); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("network: unknown router arch %q (from UPP_ROUTER; want %q, %q or %q)",
			n.arch, router.ArchIQ, router.ArchOQ, router.ArchVOQ)
	}
	n.pooling = !cfg.DisablePool && os.Getenv("UPP_NOPOOL") == ""
	n.routerAwake = make([]bool, t.NumNodes())
	n.niAwake = make([]bool, t.NumNodes())
	// Full-capacity awake lists: the flag arrays bound their length, so
	// appends in the wake paths never allocate.
	n.routerList = make([]int32, 0, t.NumNodes())
	n.niList = make([]int32, 0, t.NumNodes())
	n.niHeap = make([]int32, 0, t.NumNodes())
	// Pre-size the event wheel slots: steady state never grows them, so
	// the per-cycle append in DeliverFlit/DeliverCredit stays in place.
	// Capacity beyond the initial guess is grown once and then reused —
	// deliverEvents truncates to length 0 without freeing the array.
	for i := range n.wheel {
		n.wheel[i] = make([]event, 0, 16)
		n.callWheel[i] = make([]SchemeCall, 0, 4)
	}
	var local routing.Local
	switch {
	case cfg.UseUpDown:
		ud, err := routing.NewUpDown(t)
		if err != nil {
			return nil, err
		}
		local = ud
	case cfg.Adaptive:
		// Minimal-adaptive odd-even routing with credit-aware selection:
		// prefer the candidate output whose downstream VCs have the most
		// free credits for the packet's VNet.
		local = routing.NewOddEven(t, func(cur topology.NodeID, candidates []topology.PortID, p *message.Packet) topology.PortID {
			best := candidates[0]
			bestCredits := -1
			r := n.Routers[cur]
			for _, cand := range candidates {
				credits := 0
				for k := 0; k < cfg.Router.VCsPerVNet; k++ {
					dv := cfg.Router.VCIndex(p.VNet, k)
					if !r.OutBusy(cand, dv) {
						credits += int(r.OutCredits(cand, dv))
					}
				}
				if credits > bestCredits {
					bestCredits = credits
					best = cand
				}
			}
			return best
		})
	default:
		local = routing.NewXY(t)
	}
	n.hier = routing.NewHierarchical(t, local)
	route := func(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error) {
		return n.Route(cur, inPort, p)
	}
	n.Routers = make([]router.Microarch, t.NumNodes())
	n.NIs = make([]*NI, t.NumNodes())
	for i := range t.Nodes {
		node := &t.Nodes[i]
		r, err := router.NewMicroarch(n.arch, node, cfg.Router, n, nil, route, n.rng.Split(uint64(i)))
		if err != nil {
			return nil, err
		}
		// The NI mirrors the router's effective input-side config: its
		// credit counters must match the local port's actual VC depth,
		// which buffer-splitting variants reduce below the budget depth.
		ni := newNI(n, node.ID, r, r.Config(), cfg.EjectionDepth)
		r.SetLocal(ni)
		n.Routers[i] = r
		n.NIs[i] = ni
	}
	scheme.Attach(n)
	return n, nil
}

// MustNew is New for known-good configurations.
func MustNew(t *topology.Topology, cfg Config, scheme Scheme) *Network {
	n, err := New(t, cfg, scheme)
	if err != nil {
		panic(fmt.Sprintf("network: MustNew(%d-node topology, scheme %q, kernel %q): %v",
			t.NumNodes(), scheme.Name(), cfg.Kernel, err))
	}
	return n
}

// Scheme returns the attached deadlock-freedom scheme.
func (n *Network) Scheme() Scheme { return n.scheme }

// Hier returns the hierarchical routing function (plugins route protocol
// signals with it).
func (n *Network) Hier() *routing.Hierarchical { return n.hier }

// SetRouteOverride replaces the default hierarchical routing with a
// scheme-provided route function (composable routing's turn-restricted
// tables). Schemes call it from Attach.
func (n *Network) SetRouteOverride(f router.RouteFunc) { n.routeOverride = f }

// SetLocalRouting swaps the per-layer routing algorithm at run time — the
// dynamic-reconfiguration scenario of Sec. III-C (hardware faults or power
// gating change the topology; a topology-independent scheme rebuilds its
// routing and carries on). Call it on a quiesced network: in-flight
// packets routed under the old algorithm would otherwise mix turn rules.
func (n *Network) SetLocalRouting(local routing.Local) {
	n.hier = routing.NewHierarchical(n.Topo, local)
}

// Route computes the output port for p at router cur with input port
// inPort — the same function the routers' route-computation stage uses.
// Scheme plugins route protocol signals and popup paths with it.
func (n *Network) Route(cur topology.NodeID, inPort topology.PortID, p *message.Packet) (topology.PortID, error) {
	if n.routeOverride != nil {
		return n.routeOverride(cur, inPort, p)
	}
	if n.prevHier != nil && p.Epoch != n.routeEpoch {
		// The packet was injected under the previous routing epoch: keep
		// routing it with the old tables (UPR-style coexistence — the
		// engine proved, or UPP nets, old∪new CDG safety). If the old
		// route would cross a fenced port (a link about to be cut), the
		// packet migrates onto the current epoch's tables instead.
		port, err := n.prevHier.NextPort(cur, p)
		if err == nil && port != topology.LocalPort && n.Routers[cur].PortFenced(port) {
			n.migratePacket(p)
			return n.hier.NextPort(cur, p)
		}
		return port, err
	}
	return n.hier.NextPort(cur, p)
}

// migratePacket moves a live packet from the previous routing epoch onto
// the current one. DownPhase resets: the new tables may legally route the
// packet back up through the interposer, and the up*/down* invariant only
// has to hold per routing function, not across the splice (transient
// cross-epoch cycles are exactly what UPP recovers during a transition).
func (n *Network) migratePacket(p *message.Packet) {
	old := p.Epoch
	p.Epoch = n.routeEpoch
	p.DownPhase = false
	n.epochLive[old&1]--
	n.epochLive[p.Epoch&1]++
	n.Stats.RouteMigrations++
}

// Cycle returns the current simulation time.
func (n *Network) Cycle() sim.Cycle { return n.cycle }

// RNG exposes the network's deterministic generator for components that
// need auxiliary randomness.
func (n *Network) RNG() *sim.RNG { return n.rng }

// NewPacketID allocates a unique packet ID.
func (n *Network) NewPacketID() uint64 {
	n.nextID++
	return n.nextID
}

// AllocPacket returns a zeroed packet for injection into this network —
// recycled from the pool when pooling is enabled, freshly allocated
// otherwise. Packet producers (the traffic generator, the coherence
// PEs) allocate through it; the destination NI releases the packet
// after the PE consumes the reassembled message. Callers that keep a
// packet pointer past consumption must snapshot what they need or hold
// a generation-stamped message.PacketRef.
func (n *Network) AllocPacket() *message.Packet {
	if !n.pooling {
		return &message.Packet{}
	}
	return n.pool.Get()
}

// releasePacket returns a consumed packet to the pool. The only caller
// is NI.consumeStep — the single release point of the ownership
// protocol.
func (n *Network) releasePacket(p *message.Packet) {
	if !n.pooling {
		return
	}
	n.pool.Put(p)
}

// PacketPool exposes the network's pool for preallocation and stats
// (benchmarks, soak tests).
func (n *Network) PacketPool() *message.Pool { return &n.pool }

// Pooling reports whether packet recycling is enabled (Config.DisablePool
// and the UPP_NOPOOL environment variable both turn it off).
func (n *Network) Pooling() bool { return n.pooling }

// prepare stamps routing state on a freshly enqueued packet.
func (n *Network) prepare(p *message.Packet) {
	if p.ID == 0 {
		p.ID = n.NewPacketID()
	}
	routing.Prepare(n.Topo, p, n.scheme.Policy())
}

// ScheduleCall delivers c to the scheme's OnScheduledCall hook at the
// given future cycle (plugins use it for signal and popup-flit timing).
// Events due in the same cycle — calls, flits and credits alike — are
// delivered in the order they were scheduled. A pending call is plain
// data, so it rides along in a snapshot.
func (n *Network) ScheduleCall(cycle sim.Cycle, c SchemeCall) {
	if cycle <= n.cycle {
		panic("network: ScheduleCall in the past or present")
	}
	if cycle-n.cycle >= wheelSize {
		panic("network: ScheduleCall beyond event wheel horizon")
	}
	slot := cycle % wheelSize
	n.callWheel[slot] = append(n.callWheel[slot], c)
	n.wheel[slot] = append(n.wheel[slot], event{kind: evSchemeCall, callIdx: int32(len(n.callWheel[slot]) - 1)})
	n.wheelPending++
}

// DeliverFlit implements router.EventSink.
func (n *Network) DeliverFlit(to topology.NodeID, port topology.PortID, vc int8, f message.Flit, cycle sim.Cycle) {
	slot := cycle % wheelSize
	n.wheel[slot] = append(n.wheel[slot], event{kind: evFlit, to: to, port: port, vc: vc, flit: f})
	n.wheelPending++
}

// DeliverCredit implements router.EventSink.
func (n *Network) DeliverCredit(to topology.NodeID, port topology.PortID, vc int8, delta int, free bool, cycle sim.Cycle) {
	slot := cycle % wheelSize
	n.wheel[slot] = append(n.wheel[slot], event{kind: evCredit, to: to, port: port, vc: vc, delta: int8(delta), free: free})
	n.wheelPending++
}

// deliverLocalFlit carries an NI-injected flit to its router's local input
// port.
func (n *Network) deliverLocalFlit(node topology.NodeID, vc int8, f message.Flit, cycle sim.Cycle) {
	n.DeliverFlit(node, topology.LocalPort, vc, f, cycle)
}

// NI returns the network interface at node id.
func (n *Network) NI(id topology.NodeID) *NI { return n.NIs[id] }

// Router returns the router at node id.
func (n *Network) Router(id topology.NodeID) router.Microarch { return n.Routers[id] }

// Kernel returns the resolved cycle-kernel name (KernelActive or
// KernelNaive).
func (n *Network) Kernel() string { return n.kernel }

// RouterArch returns the resolved router microarchitecture name
// (router.ArchIQ, router.ArchOQ or router.ArchVOQ).
func (n *Network) RouterArch() string { return n.arch }

// RouterActive reports whether the router at id is in the active set this
// cycle (always true under the naive kernel). Schemes use it to skip
// detection work at provably idle routers: a router outside the set holds
// no buffered flits, and its scheme-side per-router state was reset by the
// OnRouterIdle hook when it retired.
func (n *Network) RouterActive(id topology.NodeID) bool {
	return n.kernel == KernelNaive || n.routerAwake[id]
}

// wakeRouter puts a router into the active set. Routers are only woken at
// event delivery — before the router walk of the same cycle — so the list
// needs sorting once per cycle and never mid-walk maintenance.
func (n *Network) wakeRouter(id topology.NodeID) {
	if !n.routerAwake[id] {
		n.routerAwake[id] = true
		n.routerList = append(n.routerList, int32(id))
	}
}

// wakeNI puts an NI into the active set. NIs can be woken mid-NI-walk (a
// PE Consume callback enqueueing a reply); a wake at an ID past the walk
// cursor joins the current pass through the merge heap, matching the flag
// scan's semantics of visiting every awake ID in ascending order.
func (n *Network) wakeNI(id topology.NodeID) {
	if n.niAwake[id] {
		return
	}
	n.niAwake[id] = true
	n.niList = append(n.niList, int32(id))
	if n.inNIWalk && int32(id) > n.niWalkPos {
		n.niHeapPush(int32(id))
	}
}

// AwakeRouterIDs returns the ascending IDs of the routers left awake after
// this cycle's retirement pass, or nil under the naive kernel (where every
// router is implicitly active). It is valid during the scheme's EndOfCycle
// hook only — schemes drive detection walks with it so a mostly-idle
// large system costs O(awake), not O(total-nodes), per cycle. Callers must
// not modify the slice.
func (n *Network) AwakeRouterIDs() []int32 {
	if n.kernel == KernelNaive {
		return nil
	}
	return n.routerList
}

// niHeapPush adds id to the mid-walk wake heap (a plain binary min-heap
// over a reused slice; no container/heap interface boxing).
func (n *Network) niHeapPush(id int32) {
	h := append(n.niHeap, id)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
	n.niHeap = h
}

// niHeapPop removes and returns the smallest pending mid-walk wake.
func (n *Network) niHeapPop() int32 {
	h := n.niHeap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	n.niHeap = h
	return top
}

// walkRouters sorts the awake-router list and steps each router in
// ascending NodeID order — the naive kernel's visit order. The list is a
// sorted prefix (last cycle's survivors, order-preserved by retirement)
// plus this cycle's wake tail, so the sort is near-linear.
func (n *Network) walkRouters(cycle sim.Cycle) {
	if len(n.routerList) == 0 {
		return
	}
	slices.Sort(n.routerList)
	for _, id := range n.routerList {
		n.Routers[id].Step(cycle)
	}
}

// walkNIs steps the awake NIs in ascending NodeID order, merging in NIs
// woken mid-pass at IDs beyond the cursor (they are visited in their
// sorted position, exactly as the flag scan would visit them); wakes at or
// before the cursor stay on the list for next cycle, again matching the
// scan. The prefix length is captured before stepping because same-pass
// wakes also append to the list for retirement bookkeeping.
func (n *Network) walkNIs(cycle sim.Cycle) {
	if len(n.niList) == 0 {
		return
	}
	slices.Sort(n.niList)
	prefix := len(n.niList)
	n.inNIWalk = true
	i := 0
	for i < prefix || len(n.niHeap) > 0 {
		var id int32
		if i < prefix && (len(n.niHeap) == 0 || n.niList[i] < n.niHeap[0]) {
			id = n.niList[i]
			i++
		} else {
			id = n.niHeapPop()
		}
		n.niWalkPos = id
		n.NIs[id].step(cycle)
	}
	n.inNIWalk = false
	n.niWalkPos = 0
}

// retireRouters removes routers with no remaining work from the active
// set, notifying the scheme in ascending NodeID order — identical to the
// flag scan's retirement order, which OnRouterIdle consumers observe. The
// in-place filter keeps the survivor list sorted.
func (n *Network) retireRouters(cycle sim.Cycle) {
	kept := n.routerList[:0]
	for _, id := range n.routerList {
		if n.Routers[id].Idle() {
			n.routerAwake[id] = false
			n.scheme.OnRouterIdle(topology.NodeID(id), cycle)
		} else {
			kept = append(kept, id)
		}
	}
	n.routerList = kept
}

// retireNIs removes idle NIs from the active set. NI retirement has no
// scheme callback, so only the surviving set matters, not the visit order;
// the list may end with an unsorted tail of mid-cycle wakes, which the
// next walk's sort folds in.
func (n *Network) retireNIs() {
	kept := n.niList[:0]
	for _, id := range n.niList {
		if n.NIs[id].Idle() {
			n.niAwake[id] = false
		} else {
			kept = append(kept, id)
		}
	}
	n.niList = kept
}

// deliverEvents drains the current wheel slot, waking the component each
// event lands on. Waking on credits as well as flits is conservative — a
// component with nothing buffered re-retires the same cycle — and keeps the
// wake rule a property of delivery, not of component internals.
func (n *Network) deliverEvents(cycle sim.Cycle, wake bool) {
	slot := cycle % wheelSize
	events := n.wheel[slot]
	n.wheel[slot] = events[:0]
	calls := n.callWheel[slot]
	n.callWheel[slot] = calls[:0]
	n.wheelPending -= len(events)
	for i := range events {
		e := &events[i]
		switch e.kind {
		case evFlit:
			delay := n.scheme.OnFlitArrived(e.to, e.port, e.flit, cycle)
			if wake {
				n.wakeRouter(e.to)
			}
			n.Routers[e.to].ReceiveFlit(e.port, e.vc, e.flit, cycle+delay)
		case evCredit:
			if e.port == topology.LocalPort {
				if wake {
					n.wakeNI(e.to)
				}
				n.NIs[e.to].receiveCredit(e.vc, int(e.delta), e.free)
			} else {
				if wake {
					n.wakeRouter(e.to)
				}
				n.Routers[e.to].ReceiveCredit(e.port, e.vc, int(e.delta), e.free)
			}
		case evSchemeCall:
			n.scheme.OnScheduledCall(calls[e.callIdx], cycle)
		}
		// Drop the processed event's flit packet pointer: the slot array
		// is reused at its grown capacity, and a retained entry would pin
		// a released packet until the slot next overwrites it. Safe to
		// clear in place — ScheduleCall and the Deliver* sinks bound
		// deltas to [1, wheelSize), so nothing appends to the slot being
		// drained.
		*e = event{}
	}
	// Clear the drained call payloads too — they carry flit packet refs.
	for i := range calls {
		calls[i] = SchemeCall{}
	}
}

// Step advances the system by one cycle.
func (n *Network) Step() {
	switch n.kernel {
	case KernelNaive:
		n.stepNaive()
	default:
		n.stepActive()
	}
}

// stepNaive is the exhaustive walk: every router and NI steps every cycle.
// Idle components no-op (Step early-returns on an empty router), so the
// walk is wasted work at low load — which is what the active-set kernel
// removes — but its simplicity makes it the reference the golden tests
// compare against.
func (n *Network) stepNaive() {
	cycle := n.cycle
	n.beginCycleFaults(cycle)
	n.deliverEvents(cycle, false)
	n.scheme.StartOfCycle(cycle)
	for _, r := range n.Routers {
		r.Step(cycle)
	}
	for _, ni := range n.NIs {
		ni.step(cycle)
	}
	n.scheme.EndOfCycle(cycle)
	n.cycle++
}

// stepActive advances one cycle stepping only awake components. Event
// delivery wakes the receiver; the walk visits awake components in
// ascending NodeID order — identical to the naive kernel's order — and a
// component woken mid-walk by an earlier one (an NI consuming a message
// and enqueueing a reply at a higher ID) is picked up in the same pass,
// exactly as the naive walk would. Components woken at an ID the pass
// already visited keep their wake flag and step next cycle, again matching
// naive semantics. After the walk, components with no remaining work
// retire; a retiring router notifies the scheme through OnRouterIdle so
// per-router timeout state resets once instead of being re-polled every
// cycle.
func (n *Network) stepActive() {
	cycle := n.cycle
	n.beginCycleFaults(cycle)
	n.deliverEvents(cycle, true)
	n.scheme.StartOfCycle(cycle)
	n.walkRouters(cycle)
	n.walkNIs(cycle)
	// Retirement pass: afterwards the awake sets hold exactly the
	// components with pending work, which EndOfCycle detection (UPP's
	// RouterActive check and AwakeRouterIDs walk) relies on.
	n.retireRouters(cycle)
	n.retireNIs()
	n.scheme.EndOfCycle(cycle)
	n.cycle++
}

// Run advances the network by cycles steps, batching event-wheel
// advancement across provably empty cycles (see skipIdleCycles).
func (n *Network) Run(cycles int) {
	end := n.cycle + sim.Cycle(cycles)
	for n.cycle < end {
		if n.canSkipIdleCycles() {
			n.skipIdleCycles(end)
			if n.cycle >= end {
				return
			}
		}
		n.Step()
	}
}

// canSkipIdleCycles reports whether the next cycle is provably a complete
// no-op that the clock can jump over: no component awake (so the walks and
// retirement passes would do nothing), the scheme inert (so its per-cycle
// hooks are no-ops — the scheme certifies this itself via Inert), no fault
// injector (fault plans fire on absolute cycles regardless of activity),
// and not the naive kernel (which by definition steps everything every
// cycle and is the golden reference for that behavior). Events already in
// the wheel don't block skipping — skipIdleCycles stops at the first
// non-empty slot.
func (n *Network) canSkipIdleCycles() bool {
	return n.kernel != KernelNaive && n.faults == nil &&
		len(n.routerList) == 0 && len(n.niList) == 0 && n.scheme.Inert()
}

// skipIdleCycles advances the clock to the next cycle with a pending wheel
// event, or to limit when the wheel is empty. Skipped cycles are exactly
// the cycles Step would have spent draining an empty slot and running
// no-op hooks: nothing observable changes, so traces, stats and drain
// outcomes stay bit-identical to stepping through them one by one.
func (n *Network) skipIdleCycles(limit sim.Cycle) {
	if n.wheelPending == 0 {
		n.cycle = limit
		return
	}
	for c := n.cycle; c < limit; c++ {
		if len(n.wheel[c%wheelSize]) > 0 {
			n.cycle = c
			return
		}
	}
	n.cycle = limit
}

// recordEjected updates latency statistics when a packet fully ejects.
func (n *Network) recordEjected(p *message.Packet, cycle sim.Cycle) {
	n.lastEject = cycle
	n.epochLive[p.Epoch&1]--
	n.Stats.EjectedPackets++
	if p.BirthCycle >= n.Stats.MeasureStart {
		n.Stats.MeasuredPackets++
		n.Stats.NetLatencySum += uint64(p.EjectCycle - p.InjectCycle)
		n.Stats.QueueLatencySum += uint64(p.InjectCycle - p.BirthCycle)
		n.latHist.Add(uint64(p.EjectCycle - p.BirthCycle))
	}
}

// InFlight counts packets born but not yet consumed by their destination
// PE, including injection-queue occupancy and packets awaiting
// consumption in ejection queues.
func (n *Network) InFlight() int {
	return int(n.Stats.BornPackets - n.Stats.ConsumedPackets)
}

// Quiesced reports whether nothing is in flight.
func (n *Network) Quiesced() bool { return n.InFlight() == 0 }

// Drain runs until the network quiesces or maxCycles elapse; it returns an
// error when progress stops for stallLimit cycles (a real deadlock under
// schemes without recovery, or a bug elsewhere).
func (n *Network) Drain(maxCycles int, stallLimit sim.Cycle) error {
	deadline := n.cycle + sim.Cycle(maxCycles)
	n.lastEject = n.cycle
	for n.cycle < deadline {
		if n.Quiesced() {
			return nil
		}
		if n.cycle-n.lastEject > stallLimit {
			// The watchdog: a structured diagnostic (diag.go) whose first
			// line keeps the historical message.
			return n.stallDiagnostic(stallLimit)
		}
		if n.canSkipIdleCycles() {
			// Jump over empty cycles, but never past the point where the
			// loop's own checks (deadline, stall watchdog) would fire — the
			// continue re-runs them at the new cycle, so the drain outcome
			// and the watchdog's trigger cycle are unchanged.
			limit := deadline
			if s := n.lastEject + stallLimit + 1; s < limit {
				limit = s
			}
			if before := n.cycle; limit > before {
				n.skipIdleCycles(limit)
				if n.cycle != before {
					continue
				}
			}
		}
		n.Step()
	}
	if !n.Quiesced() {
		return fmt.Errorf("network: %d packets still in flight after %d cycles", n.InFlight(), maxCycles)
	}
	return nil
}
