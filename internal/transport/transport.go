// Package transport abstracts the network under the protocol engine
// behind a single interface with two implementations: the deterministic
// discrete-event simulator (package simnet, wrapped by Sim) and a live
// transport (Live) that runs every node as a real concurrent goroutine
// exchanging codec-encoded bytes over per-link connections.
//
// The simnet is the oracle: both implementations derive each message's
// delay from the run seed and the message's scheduling key with the same
// pure hash (simnet.Latency.DrawKeyed), so a fault-free scenario
// produces identical virtual-time schedules — and therefore identical
// RoundReports, byte for byte — on either transport. The live transport
// differs only in mechanism: payloads cross node boundaries exclusively
// as serialised frames (see frame.go) over Mesh links, handlers execute
// concurrently on per-node goroutines, and a conservative clock sequences
// deliveries so concurrency never reorders the oracle schedule.
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
	// SetFaults installs a fault model. Transports that cannot honour the
	// model reject it with an error; nil (or simnet.NoFaults) always
	// succeeds and restores fault-free behaviour.
	SetFaults(f simnet.Faults) error
	// SetParallelism tunes same-tick execution width where the transport
	// supports it; elsewhere it is a no-op (the live transport is always
	// one goroutine per node).
	SetParallelism(k int)
	// SetDown marks a node offline (true) or online (false); offline nodes
	// drop incoming messages and their timers do not fire.
	SetDown(id simnet.NodeID, down bool)
	// SetSendAudit installs a hook observing every message at send time,
	// before delays are drawn; nil removes it. Implementations may call
	// the hook from several goroutines at once (the simulator audits
	// handler sends on its worker lanes), so it must be safe for
	// concurrent use.
	SetSendAudit(fn func(simnet.Message))
	// Close releases transport resources (goroutines, links). The sim
	// adapter has none and returns nil; a closed live transport must not
	// be used again.
	Close() error
}

// Factory builds a Transport for an engine run. The latency model and
// seed are the engine's, so every factory-built transport draws the same
// delay schedule.
type Factory func(lat simnet.Latency, seed int64) (Transport, error)

// Codec serialises message payloads for transports that move real bytes.
// package wire provides the production implementation; the interface
// keeps this package free of a dependency on the message definitions.
type Codec interface {
	// SizeHint returns the exact encoded size of v, or an error for an
	// unregistered type.
	SizeHint(v any) (int, error)
	// AppendEncode appends v's encoding to buf and returns the extended
	// buffer.
	AppendEncode(buf []byte, v any) ([]byte, error)
	// Decode parses one value from the front of data, returning it and
	// the number of bytes consumed.
	Decode(data []byte) (any, int, error)
}

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

// SetFaults installs the fault model on the underlying network; the
// simulator honours every model, so this never fails.
func (s *Sim) SetFaults(f simnet.Faults) error {
	s.Network.SetFaults(f)
	return nil
}

// Close is a no-op: the simulator holds no external resources.
func (s *Sim) Close() error { return nil }

// SimFactory is the Factory building the default simulator transport.
func SimFactory(lat simnet.Latency, seed int64) (Transport, error) {
	return NewSim(lat, seed), nil
}

var _ Transport = (*Sim)(nil)
