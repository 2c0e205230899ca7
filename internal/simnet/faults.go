package simnet

import (
	"math"
	"sort"
)

// Fate is a fault model's verdict on one message: deliver it normally,
// drop it in flight, or hold it Delay ticks beyond the delay drawn from
// the link's synchrony bound (the "delayed past the bound" adversary of a
// partially synchronous network).
type Fate struct {
	// Drop loses the message in flight: the sender's traffic is charged,
	// the receiver never sees it, and the dropped counters account it.
	Drop bool
	// Delay is added on top of the synchrony-bound draw (0 = on time).
	Delay Time
}

// Faults is a pluggable network fault model. The zero-fault model is a
// nil Faults (or NoFaults): the engine then behaves byte-identically to a
// fault-free network.
//
// Determinism contract: Fate and Down are pure. Fate is a function of
// (now, from, to) and the message's scheduling key (ks, kc) — the same
// key DrawKeyed hashes for the link delay — and Down of (now, node). Both
// are evaluated on the (possibly parallel) worker lanes, in no particular
// order and possibly more than once, so neither may mutate state or
// consume a sequential RNG; randomised models hash the key instead.
type Faults interface {
	// Fate decides what happens to the message sent now from→to under
	// scheduling key (ks, kc).
	Fate(now Time, from, to NodeID, ks uint64, kc uint32) Fate
	// Down reports whether the node is crashed at virtual time now.
	// Crashed nodes transmit nothing, receive nothing, and their timers
	// do not fire; a node whose Down turns false again has rejoined.
	Down(now Time, node NodeID) bool
}

// keyedUnit maps (seed, ks, kc) to a uniform float in [0, 1) with the
// hash DrawKeyed uses, so keyed fault draws need no RNG state.
func keyedUnit(seed, ks uint64, kc uint32) float64 {
	return unit(keyedHash(seed, ks, kc))
}

// unit maps a 64-bit hash to a uniform float in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) * 0x1p-53 }

func clamp01(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// NoFaults is the explicit fault-free model: every message is delivered
// within its synchrony bound and every node stays up. Installing it is
// equivalent to installing no fault model at all.
type NoFaults struct{}

// Fate implements Faults: always deliver.
func (NoFaults) Fate(Time, NodeID, NodeID, uint64, uint32) Fate { return Fate{} }

// Down implements Faults: never crashed.
func (NoFaults) Down(Time, NodeID) bool { return false }

// Loss drops each message independently with probability p. The draw is
// a keyed hash of the message's scheduling key under the model's own seed,
// separate from the latency seed (fault draws never perturb the link
// delays of the surviving messages). Construct with NewLoss.
type Loss struct {
	p    float64
	seed uint64
}

// NewLoss returns an iid message-loss model with drop probability p
// (clamped to [0, 1]) under its own seed.
func NewLoss(p float64, seed int64) *Loss {
	return &Loss{p: clamp01(p), seed: uint64(seed)}
}

// Fate implements Faults.
func (l *Loss) Fate(_ Time, _, _ NodeID, ks uint64, kc uint32) Fate {
	return Fate{Drop: l.p > 0 && keyedUnit(l.seed, ks, kc) < l.p}
}

// Down implements Faults.
func (l *Loss) Down(Time, NodeID) bool { return false }

// Lag delays a fraction of messages by a fixed number of ticks beyond
// their synchrony bound — the messages are late, not lost. Construct with
// NewLag.
type Lag struct {
	frac  float64
	extra Time
	seed  uint64
}

// NewLag returns a model that holds each message with probability frac
// for extra ticks beyond the drawn link delay, drawn from the message's
// scheduling key under the model's own seed.
func NewLag(frac float64, extra Time, seed int64) *Lag {
	return &Lag{frac: clamp01(frac), extra: extra, seed: uint64(seed)}
}

// Fate implements Faults.
func (l *Lag) Fate(_ Time, _, _ NodeID, ks uint64, kc uint32) Fate {
	if l.frac > 0 && l.extra > 0 && keyedUnit(l.seed, ks, kc) < l.frac {
		return Fate{Delay: l.extra}
	}
	return Fate{}
}

// Down implements Faults.
func (l *Lag) Down(Time, NodeID) bool { return false }

// Partition splits the population into groups that cannot exchange
// messages while the cut is in effect: from startAt (0 = the beginning)
// until the partition heals. Nodes not listed in any group form one
// implicit extra group (they can talk to each other, but not across the
// cut). Construct with NewPartition or NewPartitionAt.
type Partition struct {
	group   map[NodeID]int
	startAt Time // cut effective from this tick (0 = from the start)
	healAt  Time // 0 = never heals
}

// NewPartition builds a partition from explicit groups, effective from
// the start and healing at healAt (0 = never). A node listed twice keeps
// its first group.
func NewPartition(groups [][]NodeID, healAt Time) *Partition {
	return NewPartitionAt(groups, 0, healAt)
}

// NewPartitionAt builds a partition whose cut takes effect at startAt and
// heals at healAt (0 = never). Callers must order startAt before healAt;
// the config layer rejects specs that heal before they start.
func NewPartitionAt(groups [][]NodeID, startAt, healAt Time) *Partition {
	p := &Partition{group: make(map[NodeID]int), startAt: startAt, healAt: healAt}
	for g, ids := range groups {
		for _, id := range ids {
			if _, dup := p.group[id]; !dup {
				p.group[id] = g
			}
		}
	}
	return p
}

// Fate implements Faults: messages crossing the cut are dropped until the
// heal tick.
func (p *Partition) Fate(now Time, from, to NodeID, _ uint64, _ uint32) Fate {
	if now < p.startAt {
		return Fate{}
	}
	if p.healAt > 0 && now >= p.healAt {
		return Fate{}
	}
	gf, okf := p.group[from]
	gt, okt := p.group[to]
	if !okf {
		gf = -1
	}
	if !okt {
		gt = -1
	}
	return Fate{Drop: gf != gt}
}

// Down implements Faults: a partition crashes nobody.
func (p *Partition) Down(Time, NodeID) bool { return false }

// Window is one crash interval: the node is down in [From, To). To = 0
// means the node never rejoins.
type Window struct {
	From Time
	To   Time
}

// Churn crashes nodes on a fixed schedule of windows — the crash/rejoin
// fault class. Down is a pure schedule lookup, so it is safe under
// parallel event execution. Construct with NewChurn.
type Churn struct {
	windows map[NodeID][]Window
}

// NewChurn builds a churn model from per-node crash windows. Windows are
// kept sorted by start for the lookup.
func NewChurn(windows map[NodeID][]Window) *Churn {
	c := &Churn{windows: make(map[NodeID][]Window, len(windows))}
	for id, ws := range windows {
		sorted := append([]Window(nil), ws...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].From < sorted[j].From })
		c.windows[id] = sorted
	}
	return c
}

// Fate implements Faults: churn loses no in-flight messages by itself
// (crashed endpoints are handled by Down).
func (c *Churn) Fate(Time, NodeID, NodeID, uint64, uint32) Fate { return Fate{} }

// Down implements Faults.
func (c *Churn) Down(now Time, node NodeID) bool {
	for _, w := range c.windows[node] {
		if now < w.From {
			return false
		}
		if w.To == 0 || now < w.To {
			return true
		}
	}
	return false
}

// OneWayPartition is an asymmetric cut: messages from the src group to
// the dst group are dropped while the cut is in effect, but the reverse
// direction keeps delivering — the "my packets leave but yours never
// arrive" failure a symmetric Partition cannot express. Construct with
// NewOneWayPartition.
type OneWayPartition struct {
	src     map[NodeID]struct{}
	dst     map[NodeID]struct{}
	startAt Time // cut effective from this tick (0 = from the start)
	healAt  Time // 0 = never heals
}

// NewOneWayPartition drops src→dst traffic in [startAt, healAt) (healAt 0
// = never heals). dst→src traffic, and traffic within either group, is
// untouched.
func NewOneWayPartition(src, dst []NodeID, startAt, healAt Time) *OneWayPartition {
	p := &OneWayPartition{
		src:     make(map[NodeID]struct{}, len(src)),
		dst:     make(map[NodeID]struct{}, len(dst)),
		startAt: startAt,
		healAt:  healAt,
	}
	for _, id := range src {
		p.src[id] = struct{}{}
	}
	for _, id := range dst {
		p.dst[id] = struct{}{}
	}
	return p
}

// Fate implements Faults.
func (p *OneWayPartition) Fate(now Time, from, to NodeID, _ uint64, _ uint32) Fate {
	if now < p.startAt || (p.healAt > 0 && now >= p.healAt) {
		return Fate{}
	}
	if _, s := p.src[from]; !s {
		return Fate{}
	}
	if _, d := p.dst[to]; !d {
		return Fate{}
	}
	return Fate{Drop: true}
}

// Down implements Faults: a one-way cut crashes nobody.
func (p *OneWayPartition) Down(Time, NodeID) bool { return false }

// GrayFailure marks nodes that receive but never send: every message a
// gray node transmits is lost in flight, while deliveries to it — and its
// timers — proceed normally. Unlike a crash (Down), a gray node's state
// keeps advancing, so it looks alive to itself and dead to everyone else.
// Lost traffic is charged to the sender's sent and dropped counters,
// never to anyone's received counters, exactly like any other in-flight
// drop. Construct with NewGrayFailure.
type GrayFailure struct {
	gray map[NodeID]struct{}
}

// NewGrayFailure builds the model from the set of gray nodes.
func NewGrayFailure(nodes []NodeID) *GrayFailure {
	g := &GrayFailure{gray: make(map[NodeID]struct{}, len(nodes))}
	for _, id := range nodes {
		g.gray[id] = struct{}{}
	}
	return g
}

// Fate implements Faults: sends from gray nodes are dropped.
func (g *GrayFailure) Fate(_ Time, from, _ NodeID, _ uint64, _ uint32) Fate {
	_, isGray := g.gray[from]
	return Fate{Drop: isGray}
}

// Down implements Faults: gray nodes are not crashed — they still
// receive and their timers fire.
func (g *GrayFailure) Down(Time, NodeID) bool { return false }

// BurstLoss is keyed two-state (Gilbert-Elliott style) loss. Each link's
// timeline is cut into windows of ⌈1/pExit⌉ ticks — the bad state's mean
// sojourn — and each window is bad with probability π = pEnter/(pEnter +
// pExit), the chain's stationary bad share, by a hash of (seed, from, to,
// window). Inside a bad window a keyed draw on the message's scheduling
// key drops it with probability lossBad; good windows lose nothing. The
// long-run loss rate is π·lossBad, and drops on a link arrive in
// time-correlated bursts rather than iid — the loss pattern of
// interference or a flapping route — while Fate stays a pure function.
// Construct with NewBurstLoss.
type BurstLoss struct {
	window  Time    // window length in ticks, ⌈1/pExit⌉
	pBad    float64 // π: probability that a window is bad
	lossBad float64
	seed    uint64
}

// NewBurstLoss returns a keyed burst-loss model under its own seed.
// Probabilities are clamped to [0, 1]; pExit = 0 makes every window bad
// (a permanent outage at rate lossBad) once pEnter > 0.
func NewBurstLoss(pEnter, pExit, lossBad float64, seed int64) *BurstLoss {
	pEnter, pExit = clamp01(pEnter), clamp01(pExit)
	b := &BurstLoss{window: 1, lossBad: clamp01(lossBad), seed: uint64(seed)}
	if pExit > 0 {
		b.window = Time(math.Ceil(1 / pExit))
	}
	if pEnter > 0 {
		b.pBad = pEnter / (pEnter + pExit)
	}
	return b
}

// Fate implements Faults: look up the link's window state at now, then
// draw the loss verdict from the message's key inside a bad window.
func (b *BurstLoss) Fate(now Time, from, to NodeID, ks uint64, kc uint32) Fate {
	if b.pBad == 0 || b.lossBad == 0 {
		return Fate{}
	}
	link := uint64(uint32(from))<<32 | uint64(uint32(to))
	w := uint64(now / b.window)
	if unit(mix64(mix64(b.seed^link)^w*0x9E3779B97F4A7C15)) >= b.pBad {
		return Fate{}
	}
	return Fate{Drop: keyedUnit(b.seed, ks, kc) < b.lossBad}
}

// Down implements Faults.
func (b *BurstLoss) Down(Time, NodeID) bool { return false }

// Composite layers several fault models: a message is dropped if any
// layer drops it, extra delays add up, and a node is down if any layer
// says so.
type Composite []Faults

// Fate implements Faults.
func (cs Composite) Fate(now Time, from, to NodeID, ks uint64, kc uint32) Fate {
	var out Fate
	for _, f := range cs {
		fate := f.Fate(now, from, to, ks, kc)
		out.Drop = out.Drop || fate.Drop
		out.Delay += fate.Delay
	}
	return out
}

// Down implements Faults.
func (cs Composite) Down(now Time, node NodeID) bool {
	for _, f := range cs {
		if f.Down(now, node) {
			return true
		}
	}
	return false
}
