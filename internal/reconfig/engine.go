package reconfig

import (
	"fmt"
	"sort"

	"uppnoc/internal/faults"
	"uppnoc/internal/network"
	"uppnoc/internal/routing"
	"uppnoc/internal/sim"
	"uppnoc/internal/snap"
	"uppnoc/internal/topology"
)

// Mode selects how the engine transitions between routing functions.
type Mode uint8

const (
	// ModeAuto picks drainless when the old∪new CDG is acyclic
	// (CompatibleUnion), epoch-based otherwise. The default.
	ModeAuto Mode = iota
	// ModeDrainless forces the drainless switch even for incompatible
	// pairs — injection never stops, and UPP is the only thing standing
	// between a transient mixed-epoch cycle and a wedge. Useful for
	// measuring what the compatibility check buys.
	ModeDrainless
	// ModeEpoch forces the conservative epoch fence even for provably
	// compatible pairs.
	ModeEpoch
)

func (m Mode) String() string {
	switch m {
	case ModeAuto:
		return "auto"
	case ModeDrainless:
		return "drainless"
	case ModeEpoch:
		return "epoch"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// EventKind classifies a persistent topology event.
type EventKind uint8

const (
	// EvKillLink permanently fails a mesh link.
	EvKillLink EventKind = iota
	// EvAddLink heals a faulty mesh link (hot-add).
	EvAddLink
	// EvKillChiplet fail-stops a chiplet's compute: its cores neither
	// source nor sink traffic, but its routers keep forwarding — a
	// compute failure is not a routing change, so no transition runs.
	EvKillChiplet
)

// Event is one persistent topology event, normalized from the fault
// plan. Events sharing a cycle form one batch: a single transition
// covers all of them.
type Event struct {
	Cycle   sim.Cycle
	Kind    EventKind
	Link    int // EvKillLink, EvAddLink
	Chiplet int // EvKillChiplet
}

// CutInfo records a permanent link cut: the cycle it was applied and the
// endpoints' cumulative sent-flit counters at that moment. A post-run
// assertion that PortSentOn still equals SentA/SentB proves no flit
// crossed the link after the cut.
type CutInfo struct {
	Link         int
	Cycle        sim.Cycle
	SentA, SentB uint64
}

// Transition records one routing-epoch transition for assertions and
// reporting. Cut and Finish stay -1 until the respective step runs.
type Transition struct {
	Epoch      uint32
	Begin      sim.Cycle
	Cut        sim.Cycle
	Finish     sim.Cycle
	Compatible bool // CDG verdict (old∪new acyclic)
	Hold       bool // epoch fence used (injection stopped)
}

// Config parameterizes Attach.
type Config struct {
	// Plan supplies both the persistent events (Kills, Adds,
	// ChipletKills) and any transient faults (flaps, stalls, signal
	// drops), which the engine delegates to an embedded faults.Injector.
	Plan faults.Plan
	// Mode selects the transition strategy (default ModeAuto).
	Mode Mode
	// Rebuild computes a fresh per-layer routing function for the
	// surviving topology after each batch. Defaults to routing.NewUpDown
	// (an up*/down* search on the surviving graph). The function must
	// not consult Link.Faulty dynamically at route time the way XY does:
	// old-epoch packets keep routing under pre-kill tables after the
	// flags flip, which only a precomputed local supports.
	Rebuild func(*topology.Topology) (routing.Local, error)
}

// Engine drives deadlock-free dynamic reconfiguration. It implements
// network.FaultInjector so it is consulted at the top of every cycle
// under every kernel — all decisions are sequential and kernel
// bit-identical. Protocol per batch:
//
//  1. Walk the CDG of the old routing function (before any flag flips),
//     apply the batch's Faulty flips, rebuild routing on the surviving
//     graph, walk the new CDG, and check old∪new acyclicity.
//  2. BeginRouteTransition: packets already in flight keep the old
//     epoch's tables; compatible pairs switch drainlessly (injection
//     never stops), incompatible pairs raise the injection hold.
//  3. Fence the links being killed: no new wormholes enter, waiting
//     heads are unrouted and migrate onto the new tables, and once both
//     endpoints are quiet and no UPP popup path crosses the link, the
//     cut is applied (KillLink) and recorded with the endpoints' sent
//     counters.
//  4. The transition finishes when the old epoch drains to zero live
//     packets. During the overlap UPP remains armed: an incompatible
//     pair can form transient cycles, and popup recovery — not the
//     compatibility proof — is what guarantees forward progress.
type Engine struct {
	net     *network.Network
	inner   *faults.Injector // transient faults (flaps, stalls, drops)
	mode    Mode
	rebuild func(*topology.Topology) (routing.Local, error)
	events  []Event

	cursor     int   // first event not yet applied
	phase      uint8 // phaseIdle, phaseFencing, phaseDraining
	batchStart int   // active batch: events[batchStart:batchEnd]
	batchEnd   int
	dead       []bool // per-chiplet fail-stop state

	cuts        []CutInfo
	transitions []Transition
}

const (
	phaseIdle uint8 = iota
	phaseFencing
	phaseDraining
)

// popupPather is implemented by UPP: it reports that no active popup's
// drain path crosses the link, so cutting it cannot sever a wedged
// packet's escape route.
type popupPather interface {
	PopupPathsAvoid(l *topology.Link) bool
}

// Attach builds a reconfiguration engine for n from cfg and installs it
// as n's fault injector. It validates the plan up front: event targets
// must exist, killed links must be non-vertical mesh links (vertical
// links are UPP's drain path and may not be reconfigured away), and —
// by dry-running every batch's Faulty flips against Rebuild — no batch
// may partition a layer. A partitioning plan fails here with the
// routing package's structured *DisconnectedError in the chain, never
// at cycle N of a soak.
func Attach(n *network.Network, cfg Config) (*Engine, error) {
	inner, err := faults.NewInjector(n, cfg.Plan)
	if err != nil {
		return nil, err
	}
	rebuild := cfg.Rebuild
	if rebuild == nil {
		rebuild = func(t *topology.Topology) (routing.Local, error) {
			return routing.NewUpDown(t)
		}
	}
	e := &Engine{
		net:     n,
		inner:   inner,
		mode:    cfg.Mode,
		rebuild: rebuild,
		dead:    make([]bool, len(n.Topo.Chiplets)),
	}
	t := n.Topo
	// Only interposer mesh links are reconfigurable: vertical links are
	// UPP's drain path, and chiplet-internal links are fixed, verified
	// silicon in the modular-integration model. The restriction is also
	// what scopes the transition's safety net — mixed-epoch dependency
	// cycles can only form in layers whose local routing changed, and
	// UPP's transition-time mesh detection covers the interposer.
	checkLink := func(what string, id int) error {
		if id < 0 || id >= len(t.Links) {
			return fmt.Errorf("reconfig: %s of link %d, topology has %d", what, id, len(t.Links))
		}
		l := t.Links[id]
		if l.Vertical {
			return fmt.Errorf("reconfig: %s of vertical link %d (vertical links are the UPP drain path)", what, id)
		}
		if t.Node(l.A).Chiplet != topology.InterposerChiplet {
			return fmt.Errorf("reconfig: %s of chiplet-internal link %d (only the interposer fabric is reconfigurable)", what, id)
		}
		return nil
	}
	for _, k := range cfg.Plan.Kills {
		if err := checkLink("kill", k.Link); err != nil {
			return nil, err
		}
		e.events = append(e.events, Event{Cycle: k.Cycle, Kind: EvKillLink, Link: k.Link})
	}
	for _, a := range cfg.Plan.Adds {
		if err := checkLink("add", a.Link); err != nil {
			return nil, err
		}
		e.events = append(e.events, Event{Cycle: a.Cycle, Kind: EvAddLink, Link: a.Link})
	}
	for _, c := range cfg.Plan.ChipletKills {
		if c.Chiplet < 0 || c.Chiplet >= len(t.Chiplets) {
			return nil, fmt.Errorf("reconfig: kill of chiplet %d, topology has %d", c.Chiplet, len(t.Chiplets))
		}
		e.events = append(e.events, Event{Cycle: c.Cycle, Kind: EvKillChiplet, Chiplet: c.Chiplet})
	}
	// Deterministic batch order: by cycle, then kills before adds before
	// chiplet kills, then by target.
	sort.SliceStable(e.events, func(i, j int) bool {
		a, b := e.events[i], e.events[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Kind == EvKillChiplet {
			return a.Chiplet < b.Chiplet
		}
		return a.Link < b.Link
	})
	if err := e.dryRun(); err != nil {
		return nil, err
	}
	n.SetFaultInjector(e)
	return e, nil
}

// dryRun applies every batch's Faulty flips in order and rebuilds
// routing after each, proving no batch leaves a partitioned layer, then
// restores the construction-time Faulty set.
func (e *Engine) dryRun() error {
	t := e.net.Topo
	saved := make([]bool, len(t.Links))
	for i, l := range t.Links {
		saved[i] = l.Faulty
	}
	defer func() {
		for i, l := range t.Links {
			l.Faulty = saved[i]
		}
	}()
	for s := 0; s < len(e.events); {
		end := s
		for end < len(e.events) && e.events[end].Cycle == e.events[s].Cycle {
			end++
		}
		topoChange := false
		for _, ev := range e.events[s:end] {
			switch ev.Kind {
			case EvKillLink:
				t.Links[ev.Link].Faulty = true
				topoChange = true
			case EvAddLink:
				t.Links[ev.Link].Faulty = false
				topoChange = true
			}
		}
		if topoChange {
			if _, err := e.rebuild(t); err != nil {
				return fmt.Errorf("reconfig: batch at cycle %d leaves no valid routing: %w",
					e.events[s].Cycle, err)
			}
		}
		s = end
	}
	return nil
}

// ChipletAlive reports whether chiplet c's compute is still running.
// Workloads consult it to stop sourcing from and targeting dead cores.
func (e *Engine) ChipletAlive(c int) bool { return c >= 0 && c < len(e.dead) && !e.dead[c] }

// Cuts returns the applied permanent link cuts.
func (e *Engine) Cuts() []CutInfo { return e.cuts }

// Transitions returns the routing-epoch transitions run so far.
func (e *Engine) Transitions() []Transition { return e.transitions }

// Done reports that every event has been applied and no transition is
// still in flight.
func (e *Engine) Done() bool { return e.cursor == len(e.events) && e.phase == phaseIdle }

// Inner returns the embedded transient-fault injector.
func (e *Engine) Inner() *faults.Injector { return e.inner }

// BeginCycle implements network.FaultInjector: transient faults are
// delegated to the embedded injector, then the reconfiguration state
// machine advances. During a snapshot restore's cursor resync the state
// machine is skipped — RestoreState rebuilds it exactly.
func (e *Engine) BeginCycle(cycle sim.Cycle) {
	e.inner.BeginCycle(cycle)
	if e.net.Restoring() {
		return
	}
	e.step(cycle)
}

// SignalFate implements network.FaultInjector.
func (e *Engine) SignalFate(kind network.SignalKind, popupID uint64, hop int, cycle sim.Cycle) network.Fate {
	return e.inner.SignalFate(kind, popupID, hop, cycle)
}

// EjectionStalled implements network.FaultInjector.
func (e *Engine) EjectionStalled(node topology.NodeID, cycle sim.Cycle) bool {
	return e.inner.EjectionStalled(node, cycle)
}

// step advances the reconfiguration state machine one cycle.
func (e *Engine) step(cycle sim.Cycle) {
	switch e.phase {
	case phaseIdle:
		// A batch whose cycle arrives while an earlier transition is
		// still draining starts late, once the machine is idle again —
		// at most one transition is ever active.
		if e.cursor < len(e.events) && e.events[e.cursor].Cycle <= cycle {
			e.beginBatch(cycle)
		}
	case phaseFencing:
		e.stepFencing(cycle)
	case phaseDraining:
		e.stepDraining(cycle)
	}
}

// beginBatch runs the CDG compatibility check and starts the transition
// for the batch of events due at (or before) this cycle.
func (e *Engine) beginBatch(cycle sim.Cycle) {
	t := e.net.Topo
	e.batchStart = e.cursor
	for e.cursor < len(e.events) && e.events[e.cursor].Cycle == e.events[e.batchStart].Cycle {
		e.cursor++
	}
	e.batchEnd = e.cursor

	topoChange := false
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == EvKillChiplet {
			// Fail-stop of compute only: applied immediately, no
			// routing change, no transition.
			e.dead[ev.Chiplet] = true
		} else {
			topoChange = true
		}
	}
	if !topoChange {
		return
	}

	// Old CDG must be walked before the Faulty flips: it describes the
	// routing function the in-flight packets will keep using.
	oldCDG, oldErr := BuildCDG(t, e.net.Hier().Local)

	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		switch ev.Kind {
		case EvKillLink:
			t.Links[ev.Link].Faulty = true
		case EvAddLink:
			e.net.ReviveLink(t.Links[ev.Link])
		}
	}

	newLocal, err := e.rebuild(t)
	if err != nil {
		// Unreachable: Attach dry-ran every batch. A failure here means
		// something else mutated the topology mid-run.
		panic(fmt.Sprintf("reconfig: rebuild at cycle %d: %v", cycle, err))
	}
	compatible := false
	if oldErr == nil {
		if newCDG, newErr := BuildCDG(t, newLocal); newErr == nil {
			compatible, _ = CompatibleUnion(oldCDG, newCDG)
		}
	}
	// Any walk failure ⇒ not provably compatible ⇒ the conservative
	// epoch transition.
	hold := !compatible
	switch e.mode {
	case ModeDrainless:
		hold = false
	case ModeEpoch:
		hold = true
	}

	// The transition must begin before any fence goes up: migration of a
	// head off a fenced port needs the new epoch's tables installed.
	e.net.BeginRouteTransition(newLocal, hold)
	e.transitions = append(e.transitions, Transition{
		Epoch: e.net.RouteEpoch(), Begin: cycle, Cut: -1, Finish: -1,
		Compatible: compatible, Hold: hold,
	})

	fencing := false
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == EvKillLink {
			e.net.SetLinkFenced(t.Links[ev.Link], true)
			fencing = true
		}
	}
	if fencing {
		e.phase = phaseFencing
		e.stepFencing(cycle)
	} else {
		e.phase = phaseDraining
		e.stepDraining(cycle)
	}
}

// stepFencing migrates waiting heads off the fenced links and applies
// the cut once every fenced link is quiet and clear of popup paths.
func (e *Engine) stepFencing(cycle sim.Cycle) {
	t := e.net.Topo
	migrated := 0
	quiet := true
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind != EvKillLink {
			continue
		}
		l := t.Links[ev.Link]
		migrated += e.net.UnrouteFencedHeads(l)
		if !e.net.LinkQuiet(l) {
			quiet = false
		} else if pp, ok := e.net.Scheme().(popupPather); ok && !pp.PopupPathsAvoid(l) {
			// A popup circuit still drains a wedged packet across this
			// link; cutting now would strand it. Wait the popup out.
			quiet = false
		}
	}
	if migrated > 0 {
		e.net.AddHeadsMigrated(migrated)
	}
	if !quiet {
		return
	}
	ti := len(e.transitions) - 1
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind != EvKillLink {
			continue
		}
		l := t.Links[ev.Link]
		e.cuts = append(e.cuts, CutInfo{
			Link:  ev.Link,
			Cycle: cycle,
			SentA: e.net.Routers[l.A].PortSentOn(l.APort),
			SentB: e.net.Routers[l.B].PortSentOn(l.BPort),
		})
		// The fence stays up past the cut: stale old-epoch lookups must
		// keep migrating off the dead port instead of wedging on it.
		e.net.KillLink(l)
	}
	e.transitions[ti].Cut = cycle
	e.phase = phaseDraining
	e.stepDraining(cycle)
}

// stepDraining finishes the transition once the old epoch has no live
// packets, then lifts the fences.
func (e *Engine) stepDraining(cycle sim.Cycle) {
	if e.net.OldEpochLive() != 0 {
		return
	}
	e.net.FinishRouteTransition()
	t := e.net.Topo
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		if ev.Kind == EvKillLink {
			e.net.SetLinkFenced(t.Links[ev.Link], false)
		}
	}
	e.transitions[len(e.transitions)-1].Finish = cycle
	e.phase = phaseIdle
}

// SnapshotLabel implements network.SnapshotExtra.
func (e *Engine) SnapshotLabel() string { return "reconfig" }

// SnapshotState implements network.SnapshotExtra. Only cursor state is
// serialized: the routing tables of both epochs are pure functions of
// the topology's Faulty set at the replayed cursor, and RestoreState
// re-derives them (so a snapshot stays compact and a restore is
// bit-identical by construction).
func (e *Engine) SnapshotState(w *snap.Writer) {
	w.Int(e.cursor)
	w.Uvarint(uint64(e.phase))
	w.Int(e.batchStart)
	w.Int(e.batchEnd)
	w.Uvarint(uint64(len(e.cuts)))
	for _, c := range e.cuts {
		w.Int(c.Link)
		w.Varint(c.Cycle)
		w.Uvarint(c.SentA)
		w.Uvarint(c.SentB)
	}
	w.Uvarint(uint64(len(e.transitions)))
	for _, tr := range e.transitions {
		w.Uvarint(uint64(tr.Epoch))
		w.Varint(tr.Begin)
		w.Varint(tr.Cut)
		w.Varint(tr.Finish)
		w.Bool(tr.Compatible)
		w.Bool(tr.Hold)
	}
}

// RestoreState implements network.SnapshotExtra: it reads the cursor
// state, replays every applied event's Faulty/Down flips onto the fresh
// topology, re-derives the routing tables of the current epoch (and of
// the previous epoch when a transition is mid-flight) and installs them
// in the network. Router port masks and the network's epoch scalars were
// already restored from their own snapshot sections.
func (e *Engine) RestoreState(r *snap.Reader) error {
	ne := int64(len(e.events))
	e.cursor = r.Int("reconfig cursor", 0, ne)
	e.phase = uint8(r.Uvarint("reconfig phase"))
	e.batchStart = r.Int("reconfig batch start", 0, ne)
	e.batchEnd = r.Int("reconfig batch end", 0, ne)
	nc := r.Len("reconfig cuts", len(e.events))
	e.cuts = e.cuts[:0]
	for i := 0; i < nc; i++ {
		c := CutInfo{
			Link:  r.Int("cut link", 0, int64(len(e.net.Topo.Links)-1)),
			Cycle: r.Varint("cut cycle"),
			SentA: r.Uvarint("cut sent A"),
			SentB: r.Uvarint("cut sent B"),
		}
		e.cuts = append(e.cuts, c)
	}
	nt := r.Len("reconfig transitions", len(e.events)+1)
	e.transitions = e.transitions[:0]
	for i := 0; i < nt; i++ {
		tr := Transition{
			Epoch:      uint32(r.Uvarint("transition epoch")),
			Begin:      r.Varint("transition begin"),
			Cut:        r.Varint("transition cut"),
			Finish:     r.Varint("transition finish"),
			Compatible: r.Bool("transition compatible"),
			Hold:       r.Bool("transition hold"),
		}
		e.transitions = append(e.transitions, tr)
	}
	if r.Err() != nil {
		return r.Err()
	}
	if e.phase > phaseDraining {
		return fmt.Errorf("reconfig: snapshot phase %d out of range", e.phase)
	}
	if e.phase != phaseIdle && (e.batchEnd != e.cursor || e.batchStart >= e.batchEnd) {
		return fmt.Errorf("reconfig: snapshot batch [%d,%d) inconsistent with cursor %d",
			e.batchStart, e.batchEnd, e.cursor)
	}

	// Replay: every event with index < cursor has had its flips applied
	// (the cursor advances past a batch the moment it begins).
	t := e.net.Topo
	for i := range e.dead {
		e.dead[i] = false
	}
	cutSet := map[int]bool{}
	for _, c := range e.cuts {
		cutSet[c.Link] = true
	}
	topoApplied := false
	for i := 0; i < e.cursor; i++ {
		ev := e.events[i]
		switch ev.Kind {
		case EvKillLink:
			l := t.Links[ev.Link]
			l.Faulty = true
			// The Down flag follows the cut, not the batch: a kill
			// mid-fencing is Faulty (tables exclude it) but not yet cut.
			if cutSet[ev.Link] {
				l.Down = true
			}
			topoApplied = true
		case EvAddLink:
			l := t.Links[ev.Link]
			l.Faulty = false
			l.Down = false
			topoApplied = true
		case EvKillChiplet:
			e.dead[ev.Chiplet] = true
		}
	}

	if !topoApplied {
		// No transition has run: the construction-time tables (which
		// need not come from Rebuild at all) are still installed.
		return nil
	}
	cur, err := e.rebuild(t)
	if err != nil {
		return fmt.Errorf("reconfig: restore rebuild: %w", err)
	}
	var prevH *routing.Hierarchical
	if e.phase != phaseIdle {
		// The previous epoch's tables are the ones built before the
		// active batch: un-flip it, rebuild, re-flip.
		e.flipBatch(true)
		prev, err := e.rebuild(t)
		e.flipBatch(false)
		if err != nil {
			return fmt.Errorf("reconfig: restore prev-epoch rebuild: %w", err)
		}
		prevH = routing.NewHierarchical(t, prev)
	}
	e.net.RestoreRouteTables(routing.NewHierarchical(t, cur), prevH)
	return nil
}

// flipBatch toggles the active batch's Faulty flips (invert=true undoes
// them, invert=false reapplies them).
func (e *Engine) flipBatch(invert bool) {
	t := e.net.Topo
	for _, ev := range e.events[e.batchStart:e.batchEnd] {
		switch ev.Kind {
		case EvKillLink:
			t.Links[ev.Link].Faulty = !invert
		case EvAddLink:
			t.Links[ev.Link].Faulty = invert
		}
	}
}
