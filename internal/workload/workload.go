// Package workload provides closed-loop collective-communication and
// ML-training traffic: per-node dependency state machines in which a node
// injects its next chunk only after the chunks it depends on have been
// ejected, reassembled and consumed at their destinations. This is the
// traffic that stresses integration-induced deadlock cycles — cyclic
// *message dependencies*, not raw offered load — and it is where
// deadlock-avoidance and deadlock-recovery schemes actually diverge.
//
// A workload is a Program: one ordered op list per core rank, each op
// gated on a set of message tags (chunks this rank must have received)
// and an optional local compute delay before it fires its sends. The
// Engine advances every rank's state machine once per cycle, before
// Network.Step, exactly like the open-loop traffic generator — so a
// workload run is deterministic under both cycle kernels (message
// consumption happens in NodeID order under each).
package workload

import (
	"fmt"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// Send is one message a program op injects: a chunk of Flits flits to
// core rank To, identified by the program-global Tag the receiver's ops
// wait on.
type Send struct {
	To    int
	Tag   int
	Flits int
	VNet  message.VNet
	Class message.Class
}

// Op is one step of a rank's program. The op becomes ready when the
// rank's previous op has fired and every tag in Wait has been consumed at
// this rank; after Compute further cycles of local delay its Sends are
// enqueued. Any of the three parts may be empty: a wait-only op models a
// final receive, a compute-only op models the gap between training
// phases, a send-only op a dependency-free initial burst.
type Op struct {
	Wait    []int
	Compute int
	Sends   []Send
}

// Program is a complete workload: Ops[rank] is the op list of core rank
// `rank`, and tags 0..NumTags-1 identify every message exactly once.
// TagDst[tag] is the receiving rank (the engine uses it to route receipt
// notifications and Validate uses it to prove the closed loop is closed:
// every message is waited on by its destination).
type Program struct {
	Name    string
	Ops     [][]Op
	NumTags int
	TagDst  []int
}

// Ranks returns the number of participating core ranks.
func (p *Program) Ranks() int { return len(p.Ops) }

// Messages returns the total message count per iteration.
func (p *Program) Messages() int { return p.NumTags }

// Validate proves the program is well-formed and can always make
// progress: every send stays in range and off the self-loop, every tag is
// sent exactly once to TagDst and waited on exactly once at TagDst (so a
// completed program implies every injected message was consumed — the
// property that makes iteration restart and the zero-alloc steady state
// safe), and the dependency graph (op sequencing edges plus
// send-before-wait edges) is acyclic, so a stuck run indicts the network,
// never the workload.
func (p *Program) Validate() error {
	n := len(p.Ops)
	if n < 2 {
		return fmt.Errorf("workload %s: need at least 2 ranks, have %d", p.Name, n)
	}
	if len(p.TagDst) != p.NumTags {
		return fmt.Errorf("workload %s: TagDst has %d entries for %d tags", p.Name, len(p.TagDst), p.NumTags)
	}
	sent := make([]int, p.NumTags)
	waited := make([]int, p.NumTags)
	// Global op index of each rank's op i is opBase[rank]+i.
	opBase := make([]int, n)
	total := 0
	for r := range p.Ops {
		opBase[r] = total
		total += len(p.Ops[r])
	}
	producer := make([]int, p.NumTags) // global op index sending each tag
	for r, ops := range p.Ops {
		for i, op := range ops {
			if op.Compute < 0 {
				return fmt.Errorf("workload %s: rank %d op %d: negative compute %d", p.Name, r, i, op.Compute)
			}
			for _, s := range op.Sends {
				if s.To < 0 || s.To >= n {
					return fmt.Errorf("workload %s: rank %d op %d: send to rank %d of %d", p.Name, r, i, s.To, n)
				}
				if s.To == r {
					return fmt.Errorf("workload %s: rank %d op %d: self-send (tag %d)", p.Name, r, i, s.Tag)
				}
				if s.Tag < 0 || s.Tag >= p.NumTags {
					return fmt.Errorf("workload %s: rank %d op %d: tag %d out of range", p.Name, r, i, s.Tag)
				}
				if s.Flits < 1 {
					return fmt.Errorf("workload %s: rank %d op %d: tag %d has %d flits", p.Name, r, i, s.Tag, s.Flits)
				}
				if s.VNet < 0 || s.VNet >= message.NumVNets {
					return fmt.Errorf("workload %s: rank %d op %d: tag %d on invalid vnet %d", p.Name, r, i, s.Tag, s.VNet)
				}
				if p.TagDst[s.Tag] != s.To {
					return fmt.Errorf("workload %s: tag %d sent to rank %d but TagDst says %d", p.Name, s.Tag, s.To, p.TagDst[s.Tag])
				}
				sent[s.Tag]++
				producer[s.Tag] = opBase[r] + i
			}
			for _, t := range op.Wait {
				if t < 0 || t >= p.NumTags {
					return fmt.Errorf("workload %s: rank %d op %d: waits on tag %d out of range", p.Name, r, i, t)
				}
				if p.TagDst[t] != r {
					return fmt.Errorf("workload %s: rank %d op %d: waits on tag %d destined for rank %d", p.Name, r, i, t, p.TagDst[t])
				}
				waited[t]++
			}
		}
	}
	for t := 0; t < p.NumTags; t++ {
		if sent[t] != 1 {
			return fmt.Errorf("workload %s: tag %d sent %d times (want exactly 1)", p.Name, t, sent[t])
		}
		if waited[t] != 1 {
			return fmt.Errorf("workload %s: tag %d waited on %d times (want exactly 1 — every message must gate its receiver)", p.Name, t, waited[t])
		}
	}
	// Acyclicity by Kahn's algorithm over sequencing + tag edges.
	indeg := make([]int, total)
	succ := make([][]int, total)
	edge := func(from, to int) {
		succ[from] = append(succ[from], to)
		indeg[to]++
	}
	for r, ops := range p.Ops {
		for i, op := range ops {
			g := opBase[r] + i
			if i+1 < len(ops) {
				edge(g, g+1)
			}
			for _, t := range op.Wait {
				edge(producer[t], g)
			}
		}
	}
	queue := make([]int, 0, total)
	for g, d := range indeg {
		if d == 0 {
			queue = append(queue, g)
		}
	}
	done := 0
	for len(queue) > 0 {
		g := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		done++
		for _, s := range succ[g] {
			if indeg[s]--; indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if done != total {
		return fmt.Errorf("workload %s: dependency cycle among %d of %d ops — the program could deadlock on its own", p.Name, total-done, total)
	}
	return nil
}

// Recorder observes every injected workload message (the trace-recording
// frontend implements it; see trace.go).
type Recorder interface {
	Record(cycle sim.Cycle, srcRank, dstRank int, vnet message.VNet, class message.Class, flits int)
}

// Engine drives a Program against a network. Create one per network with
// NewEngine; it wraps the core NIs' Consume hooks to observe chunk
// receipt, so it must not share a network with the coherence substrate.
type Engine struct {
	net   *network.Network
	prog  Program
	cores []topology.NodeID

	// Iterations repeats the program (training steps). The engine
	// restarts only once every rank has finished, and Validate guarantees
	// every message was consumed by then, so tag reuse across iterations
	// is race-free. Set before the first Tick; defaults to 1.
	Iterations int

	// Per-rank state machine.
	pc          []int32
	computeLeft []int32
	computeSet  []bool
	received    []bool
	doneRanks   int

	iter        int
	finished    bool
	finishCycle sim.Cycle
	iterCycles  []sim.Cycle

	// MessagesDelivered counts workload chunks consumed at their
	// destination across all iterations.
	MessagesDelivered uint64

	rec Recorder
}

// NewEngine validates prog against net (rank count must equal the core
// count) and installs the receipt hooks.
func NewEngine(net *network.Network, prog Program) (*Engine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	cores := net.Topo.Cores()
	if len(cores) != prog.Ranks() {
		return nil, fmt.Errorf("workload %s: program has %d ranks but the system has %d cores", prog.Name, prog.Ranks(), len(cores))
	}
	e := &Engine{
		net:         net,
		prog:        prog,
		cores:       cores,
		Iterations:  1,
		pc:          make([]int32, prog.Ranks()),
		computeLeft: make([]int32, prog.Ranks()),
		computeSet:  make([]bool, prog.Ranks()),
		received:    make([]bool, prog.NumTags),
	}
	// One shared hook: the tag in Packet.Addr already identifies the
	// receipt, and Consume runs on the coordinating goroutine under every
	// kernel, so a plain field write is deterministic.
	consume := func(p *message.Packet, cycle sim.Cycle) bool {
		if t := p.Addr; t >= 1 && t <= uint64(len(e.received)) {
			e.received[t-1] = true
			e.MessagesDelivered++
		}
		return true
	}
	for _, id := range cores {
		net.NI(id).Consume = consume
	}
	return e, nil
}

// SetRecorder attaches a message recorder (nil detaches). Attach before
// the first Tick so the trace covers the whole run.
func (e *Engine) SetRecorder(r Recorder) { e.rec = r }

// Done reports whether every rank has finished every iteration.
func (e *Engine) Done() bool { return e.finished }

// FinishCycle returns the cycle at which the final iteration completed
// (valid once Done).
func (e *Engine) FinishCycle() sim.Cycle { return e.finishCycle }

// IterationsDone returns how many whole iterations have completed, and
// the completion cycle of each.
func (e *Engine) IterationsDone() []sim.Cycle { return e.iterCycles }

// Progress returns completed and total op counts across ranks of the
// current iteration (drain diagnostics).
func (e *Engine) Progress() (done, total int) {
	for r := range e.prog.Ops {
		done += int(e.pc[r])
		total += len(e.prog.Ops[r])
	}
	return done, total
}

// Tick advances every rank's state machine one cycle. Call once per cycle
// before Network.Step, like traffic.Generator.Tick. Ranks are visited in
// ascending order and consecutive ready ops fire in the same cycle (an op
// chain with satisfied waits and no compute is one burst).
func (e *Engine) Tick(cycle sim.Cycle) {
	if e.finished {
		return
	}
	if e.iterCycles == nil {
		// Sized once up front so iteration rollover never allocates in
		// the steady-state loop (the zero-alloc gate covers this path).
		// Capped so an effectively-unbounded Iterations (benchmarks) does
		// not reserve gigabytes; runs past the cap regrow amortized.
		capHint := e.Iterations
		if capHint > 4096 {
			capHint = 4096
		}
		e.iterCycles = make([]sim.Cycle, 0, capHint)
	}
	for r := range e.prog.Ops {
		e.tickRank(r, cycle)
	}
	if e.doneRanks == e.prog.Ranks() {
		// All ranks finished this iteration; Validate guarantees every
		// tag was consumed, so the tag table can be reset and reused.
		e.iterCycles = append(e.iterCycles, cycle)
		e.iter++
		if e.iter >= e.Iterations {
			e.finished = true
			e.finishCycle = cycle
			return
		}
		for t := range e.received {
			e.received[t] = false
		}
		for r := range e.pc {
			e.pc[r] = 0
		}
		e.doneRanks = 0
	}
}

func (e *Engine) tickRank(r int, cycle sim.Cycle) {
	ops := e.prog.Ops[r]
	for int(e.pc[r]) < len(ops) {
		op := &ops[e.pc[r]]
		ready := true
		for _, t := range op.Wait {
			if !e.received[t] {
				ready = false
				break
			}
		}
		if !ready {
			return
		}
		if op.Compute > 0 {
			if !e.computeSet[r] {
				e.computeSet[r] = true
				e.computeLeft[r] = int32(op.Compute)
			}
			if e.computeLeft[r] > 0 {
				e.computeLeft[r]--
				return
			}
			e.computeSet[r] = false
		}
		for i := range op.Sends {
			e.inject(r, &op.Sends[i], cycle)
		}
		e.pc[r]++
		if int(e.pc[r]) == len(ops) {
			e.doneRanks++
			return
		}
	}
}

func (e *Engine) inject(rank int, s *Send, cycle sim.Cycle) {
	p := e.net.AllocPacket()
	p.Src = e.cores[rank]
	p.Dst = e.cores[s.To]
	p.VNet = s.VNet
	p.Size = s.Flits
	p.Class = s.Class
	p.Addr = uint64(s.Tag) + 1
	e.net.NI(p.Src).Enqueue(p, cycle)
	if e.rec != nil {
		e.rec.Record(cycle, rank, s.To, s.VNet, s.Class, s.Flits)
	}
}

// Run ticks the engine and steps the network until the program completes,
// returning an error when it has not finished within maxCycles (the
// error includes op progress — under a scheme without recovery a closed
// loop can genuinely deadlock, which is the point of the comparison).
func (e *Engine) Run(maxCycles int) error {
	for i := 0; i < maxCycles && !e.finished; i++ {
		e.Tick(e.net.Cycle())
		e.net.Step()
	}
	if !e.finished {
		done, total := e.Progress()
		return fmt.Errorf("workload %s: %d/%d ops fired after %d cycles (iteration %d of %d, %d packets in flight)",
			e.prog.Name, done, total, maxCycles, e.iter+1, e.Iterations, e.net.InFlight())
	}
	return nil
}
