package main

import (
	"time"

	"uppnoc/internal/message"
	"uppnoc/internal/network"
	"uppnoc/internal/router"
	"uppnoc/internal/sim"
	"uppnoc/internal/topology"
)

// tracePeriod is the cycle sampling period of the traced run: one cycle in
// tracePeriod has its layer calls timed. A timed cycle pays two clock
// reads around each of its hundreds of Router.Step calls, which would
// otherwise slow the whole run by half. Counts are taken on every cycle.
const tracePeriod = 8

// tracer accumulates the traced run's per-layer spans. Spans are timed
// around the calls into each layer's public interfaces, from the
// benchmark's own files: the injection source's Tick and Network.Step in
// the cycle loop, Router.Step through tracedRouter, and the scheme hooks
// through tracedScheme.
type tracer struct {
	// on is set inside the measured window; sampled marks a window cycle
	// whose spans are timed.
	on, sampled bool

	cycles, sampledCycles int64
	steps, sampledSteps   int64

	// Nanoseconds spent in each layer during sampled cycles, as measured.
	// stepNS is Network.Step as a whole; router and scheme spans are its
	// children. The span counts let layerNS and selfNS take the clock's own
	// cost back out.
	stepNS, routerNS, detectNS, protocolNS, flitNS int64
	trafficNS, workloadNS                          int64
	detectSpans, protocolSpans, flitSpans          int64

	// spanNS is what a span around no work reads; pairNS is what the two
	// clock calls of a span cost the span around it.
	spanNS, pairNS float64
}

func newTracer() *tracer {
	t := &tracer{}
	t.spanNS, t.pairNS = clockCost()
	return t
}

// clockCost times empty spans, timed the way the tracer times layers: it
// returns the median of what one empty span reads and of what it costs.
func clockCost() (span, pair float64) {
	const n = 1000
	var spans, pairs []float64
	for i := 0; i < 21; i++ {
		var sum int64
		t0 := time.Now()
		for j := 0; j < n; j++ {
			s := time.Now()
			sum += int64(time.Since(s))
		}
		pairs = append(pairs, float64(time.Since(t0).Nanoseconds())/n)
		spans = append(spans, float64(sum)/n)
	}
	return median(spans), median(pairs)
}

// A span reads its call's time plus spanNS, and the span around it also
// pays pairNS for the child's clock calls. So a layer's time is its
// measured total less spanNS per span, and Network.Step's self time is its
// measured total, less its children's measured totals, less pairNS-spanNS
// per child span and spanNS for its own span. A layer whose calls cost
// less than the clock resolves reads 0 rather than a negative time.

// layerNS returns a layer's corrected time per sampled cycle.
func (t *tracer) layerNS(ns, spans int64) float64 {
	if t.sampledCycles == 0 {
		return 0
	}
	return max(0, float64(ns)-t.spanNS*float64(spans)) / float64(t.sampledCycles)
}

// selfNS returns Network.Step's corrected self time per sampled cycle.
func (t *tracer) selfNS() float64 {
	if t.sampledCycles == 0 {
		return 0
	}
	children := t.routerNS + t.detectNS + t.protocolNS + t.flitNS
	spans := t.sampledSteps + t.detectSpans + t.protocolSpans + t.flitSpans
	own := float64(t.stepNS-children) - (t.pairNS-t.spanNS)*float64(spans) - t.spanNS*float64(t.sampledCycles)
	return max(0, own) / float64(t.sampledCycles)
}

// begin opens a window cycle and reports whether it is sampled.
func (t *tracer) begin(c sim.Cycle) bool {
	t.cycles++
	t.sampled = c%tracePeriod == 0
	if t.sampled {
		t.sampledCycles++
	}
	return t.sampled
}

// stop leaves the measured window: nothing after it is counted or timed.
func (t *tracer) stop() { t.on, t.sampled = false, false }

// tracedRouter times Router.Step; every other method is the wrapped
// router's.
type tracedRouter struct {
	router.Microarch
	t *tracer
}

func (r *tracedRouter) Step(c sim.Cycle) {
	t := r.t
	if !t.sampled {
		if t.on {
			t.steps++
		}
		r.Microarch.Step(c)
		return
	}
	t.steps++
	t.sampledSteps++
	t0 := time.Now()
	r.Microarch.Step(c)
	t.routerNS += int64(time.Since(t0))
}

// traceRouters wraps every router of n. The kernels reach routers only
// through Network.Routers and the Microarch interface, so the wrapped
// network simulates exactly as the plain one.
func traceRouters(n *network.Network, t *tracer) {
	for i, r := range n.Routers {
		n.Routers[i] = &tracedRouter{Microarch: r, t: t}
	}
}

// tracedScheme times the UPP hooks the cycle kernel calls: EndOfCycle is
// detection, StartOfCycle and OnScheduledCall the popup protocol, and
// OnFlitArrived the per-flit hook at event delivery.
type tracedScheme struct {
	network.Scheme
	t *tracer
}

func (s *tracedScheme) StartOfCycle(c sim.Cycle) {
	if !s.t.sampled {
		s.Scheme.StartOfCycle(c)
		return
	}
	t0 := time.Now()
	s.Scheme.StartOfCycle(c)
	s.t.protocolNS += int64(time.Since(t0))
	s.t.protocolSpans++
}

func (s *tracedScheme) EndOfCycle(c sim.Cycle) {
	if !s.t.sampled {
		s.Scheme.EndOfCycle(c)
		return
	}
	t0 := time.Now()
	s.Scheme.EndOfCycle(c)
	s.t.detectNS += int64(time.Since(t0))
	s.t.detectSpans++
}

func (s *tracedScheme) OnScheduledCall(call network.SchemeCall, c sim.Cycle) {
	if !s.t.sampled {
		s.Scheme.OnScheduledCall(call, c)
		return
	}
	t0 := time.Now()
	s.Scheme.OnScheduledCall(call, c)
	s.t.protocolNS += int64(time.Since(t0))
	s.t.protocolSpans++
}

func (s *tracedScheme) OnFlitArrived(node topology.NodeID, port topology.PortID, f message.Flit, c sim.Cycle) sim.Cycle {
	if !s.t.sampled {
		return s.Scheme.OnFlitArrived(node, port, f, c)
	}
	t0 := time.Now()
	d := s.Scheme.OnFlitArrived(node, port, f, c)
	s.t.flitNS += int64(time.Since(t0))
	s.t.flitSpans++
	return d
}

// runCycles advances n by up to cycles cycles, calling tick (the traffic
// generator's or the workload engine's Tick) before each Network.Step, and
// stops early once done reports true (done may be nil). With a tracer on,
// sampled cycles time the tick into *tickNS and the step into stepNS. It
// returns the number of cycles run.
func runCycles(n *network.Network, tick func(sim.Cycle), done func() bool, cycles int, tr *tracer, tickNS *int64) int {
	for i := 0; i < cycles; i++ {
		if done != nil && done() {
			return i
		}
		c := n.Cycle()
		if tr != nil && tr.on && tr.begin(c) {
			t0 := time.Now()
			tick(c)
			t1 := time.Now()
			n.Step()
			*tickNS += int64(t1.Sub(t0))
			tr.stepNS += int64(time.Since(t1))
			continue
		}
		tick(c)
		n.Step()
	}
	return cycles
}
