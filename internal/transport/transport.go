// Package transport is the network contract the protocol engine programs
// against, with one implementation: the deterministic discrete-event
// simulator (package simnet, wrapped by Sim). The interface stays so a
// caller can wrap the simulator — a benchmark harness timing each drain,
// say — through protocol.Params.Transport without touching the engine.
package transport

import (
	"cycledger/internal/simnet"
)

// Transport is the network contract the protocol engine programs against,
// extracted from *simnet.Network's method set. Sends and timers issued
// from handlers go through the *simnet.Context the transport hands to
// each handler invocation; the methods here are the engine-side half:
// registration, external sends/timers, the run loop, clock, and metrics.
type Transport interface {
	// Register installs the handler for a node; re-registering replaces it.
	Register(id simnet.NodeID, h simnet.Handler)
	// Send enqueues a message from outside any handler.
	Send(from, to simnet.NodeID, tag string, payload any, size int)
	// After schedules fn on the given node after delay d (clamped to ≥ 1).
	After(node simnet.NodeID, d simnet.Time, fn func(*simnet.Context))
	// RunUntilIdle drains the event queue and returns the number of events
	// processed.
	RunUntilIdle() uint64
	// Now returns the current virtual time.
	Now() simnet.Time
	// Metrics exposes the traffic accounting.
	Metrics() *simnet.Metrics
	// SetFaults installs a fault model; nil (or simnet.NoFaults) restores
	// fault-free behaviour.
	SetFaults(f simnet.Faults)
	// SetParallelism tunes same-tick execution width.
	SetParallelism(k int)
	// SetDown marks a node offline (true) or online (false); offline nodes
	// drop incoming messages and their timers do not fire.
	SetDown(id simnet.NodeID, down bool)
	// SetSendHook installs a hook that sees every message at send time,
	// before delays are drawn, and returns the payload to deliver; nil
	// removes it. The simulator calls the hook for handler sends on its
	// worker lanes, several at once, so it must be safe for concurrent use.
	SetSendHook(fn func(simnet.Message) any)
	// Close releases transport resources. The simulator holds none and
	// returns nil.
	Close() error
}

// Factory builds a Transport for an engine run. The latency model and
// seed are the engine's, so every factory-built transport draws the same
// delay schedule.
type Factory func(lat simnet.Latency, seed int64) (Transport, error)

// Sim adapts *simnet.Network to the Transport interface. It adds nothing:
// every method is the network's own, so engine behaviour on Sim is the
// seed engine's behaviour, fault model included.
type Sim struct {
	*simnet.Network
}

// NewSim builds the simulator-backed transport, the default for every
// engine run.
func NewSim(lat simnet.Latency, seed int64) *Sim {
	return &Sim{Network: simnet.New(lat, seed)}
}

// Close is a no-op: the simulator holds no external resources.
func (s *Sim) Close() error { return nil }

// SimFactory is the Factory building the default simulator transport.
func SimFactory(lat simnet.Latency, seed int64) (Transport, error) {
	return NewSim(lat, seed), nil
}

var _ Transport = (*Sim)(nil)
