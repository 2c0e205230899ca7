package main

import (
	"time"

	"cycledger/internal/protocol"
	"cycledger/internal/simnet"
	"cycledger/internal/transport"
)

// stages are the spans of one sequential round, in order. "pre" runs from
// RunRound's entry to the first PhaseStart (adversary re-plan, workload
// routing); each network phase runs to the next PhaseStart, and "block"
// runs to RunRound's return. In the sequential schedule the CPU stages
// land inside them: PoW in semicommit, block assembly in score, the PVSS
// beacon and the ledger apply in select.
var stages = []string{"pre", "config", "semicommit", "intra", "inter", "score", "select", "block"}

// timedNet wraps the simulator transport and times every drain of its
// event queue. Everything else passes straight through.
type timedNet struct {
	transport.Transport
	drain  time.Duration
	events uint64
}

func (n *timedNet) RunUntilIdle() uint64 {
	t0 := time.Now()
	ev := n.Transport.RunUntilIdle()
	n.drain += time.Since(t0)
	n.events += ev
	return ev
}

// tracer splits each traced round into stages at the engine's PhaseStart
// callbacks. A stage's wall time is the span between its boundaries; its
// off-network time is that span minus the transport drains inside it,
// i.e. the engine-side work of the stage.
type tracer struct {
	net *timedNet
	on  bool // accumulate (false during warm-up)

	stage      string
	stageStart time.Time
	drainStart time.Duration

	wall   map[string]time.Duration
	offnet map[string]time.Duration
	// drain and events over the traced rounds.
	drain  time.Duration
	events uint64
}

func newTracer() *tracer {
	return &tracer{wall: map[string]time.Duration{}, offnet: map[string]time.Duration{}}
}

// factory is the Params.Transport that builds the timed simulator.
func (t *tracer) factory(lat simnet.Latency, seed int64) (transport.Transport, error) {
	inner, err := transport.SimFactory(lat, seed)
	if err != nil {
		return nil, err
	}
	t.net = &timedNet{Transport: inner}
	return t.net, nil
}

func (t *tracer) hooks() *protocol.Hooks {
	return &protocol.Hooks{PhaseStart: func(_ uint64, phase string) { t.enter(phase) }}
}

// run wraps one timed round of s in stage accounting, then gates it.
func (t *tracer) run(s *session) error {
	t.on = true
	drain0, events0 := t.net.drain, t.net.events
	t.enter("pre")
	rep, err := s.runTimed()
	t.enter("")
	t.drain += t.net.drain - drain0
	t.events += t.net.events - events0
	if err != nil {
		return err
	}
	return s.keep(rep)
}

// enter closes the current stage and opens the next ("" opens none).
func (t *tracer) enter(stage string) {
	now, drain := time.Now(), t.net.drain
	if t.on && t.stage != "" {
		span := now.Sub(t.stageStart)
		t.wall[t.stage] += span
		t.offnet[t.stage] += span - (drain - t.drainStart)
	}
	t.stage, t.stageStart, t.drainStart = stage, now, drain
}
