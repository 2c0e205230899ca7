// Package simnet is a deterministic discrete-event network simulator
// implementing the paper's network model (§III-B): synchronous links with
// delay bound Δ inside a committee, synchronous links with a larger bound Γ
// among key members (leaders, partial sets, referee members), and
// partially-synchronous links everywhere else. The adversary's power to
// reorder honest messages (§III-C) is modelled by per-message delay jitter
// within the synchrony bound, derived from the seed and the message's
// scheduling key by a pure hash (DrawKeyed) — no shared RNG stream, so any
// number of worker lanes can compute delays independently.
//
// The simulator is the measurement substrate for Table II: it accounts
// messages and bytes per (phase, node), which the protocol layer aggregates
// per role.
//
// A pluggable fault model (SetFaults) can additionally drop messages in
// flight, delay them beyond the synchrony bound, or crash and rejoin nodes
// on a schedule — see the Faults interface and the Loss, Lag, Partition,
// Churn, Adaptive, and Composite implementations. Without a model (or with
// NoFaults) the engine is byte-identical to a fault-free network.
//
// The scheduler is lane-sharded for the ROADMAP's 10k–100k-node scale
// ceiling (see ARCHITECTURE.md, "Lane-sharded scheduler"). Every worker
// lane owns a calendar queue, an event free list, and one reusable
// Context; a macro-step pops each lane's tick batch in parallel, renumbers
// the merged batch once on the driving goroutine, executes lanes in
// parallel with same-lane effects pushed lane-locally, and exchanges
// cross-lane sends through per-(src,dst) outboxes drained by the
// destination lane. Faulted, audited and fault-free runs share this one
// executor: fault fates, like delays, are pure functions of the message's
// scheduling key (ks, kc) — itself a pure function of the event's causal
// origin — which every lane layout sorts identically, so a seeded run
// produces identical results at any parallelism level and any
// registration order. Steady-state message traffic allocates nothing.
package simnet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
)

// Time is virtual simulation time, in abstract ticks.
type Time int64

// NodeID identifies a simulated node.
type NodeID int32

// Message is a delivered protocol message.
type Message struct {
	From    NodeID
	To      NodeID
	Tag     string // protocol tag, e.g. "PROPOSE"; also the metrics key
	Payload any
	Size    int // abstract wire size in bytes, for traffic accounting
}

// Handler processes one delivered message. All sends and timers must go
// through ctx so parallel execution stays deterministic.
type Handler func(ctx *Context, msg Message)

// LinkClass is the synchrony class of a link, per §III-B.
type LinkClass int

const (
	// LinkIntra is a well-connected intra-committee link (delay ≤ Δ).
	LinkIntra LinkClass = iota
	// LinkKey connects two key members across committees (delay ≤ Γ).
	LinkKey
	// LinkPartial is any other link: partially synchronous.
	LinkPartial
)

// Latency configures per-class delay bounds. Every message on a class-X
// link is delivered after a delay drawn uniformly from [1, bound(X)] —
// the adversary choosing the schedule within the synchrony bound.
type Latency struct {
	Delta         Time // Δ: intra-committee bound
	Gamma         Time // Γ: key-member bound (Γ ≥ Δ in the paper)
	PartialMax    Time // worst-case partial-synchrony delay used in simulation
	Classify      func(from, to NodeID) LinkClass
	Deterministic bool // if true, always use the full bound (no jitter)
}

// DefaultLatency returns the bounds used throughout the benchmarks:
// Δ = 10, Γ = 40, partial max = 100, with all links intra unless a
// classifier is installed.
func DefaultLatency() Latency {
	return Latency{Delta: 10, Gamma: 40, PartialMax: 100}
}

func (l Latency) bound(from, to NodeID) Time {
	class := LinkIntra
	if l.Classify != nil {
		class = l.Classify(from, to)
	}
	switch class {
	case LinkIntra:
		return l.Delta
	case LinkKey:
		return l.Gamma
	default:
		return l.PartialMax
	}
}

// mix64 is the splitmix64 finalizer: a fast invertible hash whose output
// bits all depend on all input bits.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DrawKeyed derives the delivery delay for a message on the (from, to)
// link: uniform in [1, bound], or exactly the bound when the model is
// Deterministic. The draw is a pure hash of (seed, ks, kc) — the run seed
// and the message's scheduling key — so any goroutine can compute it
// without touching shared RNG state, and the simnet and the live
// transport derive identical delays for the same message (the oracle
// contract: same seed, same key, same delay).
func (l Latency) DrawKeyed(seed, ks uint64, kc uint32, from, to NodeID) Time {
	b := l.bound(from, to)
	if b < 1 {
		b = 1
	}
	if l.Deterministic {
		return b
	}
	return Time(keyedHash(seed, ks, kc)%uint64(b)) + 1
}

// keyedHash is the per-message hash behind every keyed draw — link delays
// here, fault fates in faults.go: a pure function of a seed and the
// message's scheduling key (ks, kc).
func keyedHash(seed, ks uint64, kc uint32) uint64 {
	return mix64(seed ^ ks*0x9E3779B97F4A7C15 ^ (uint64(kc)+1)*0xD6E8FEB86659FD93)
}

type eventKind int

const (
	evMessage eventKind = iota
	evTimer
)

// event is one scheduled delivery. Two orderings coexist:
//
//   - (ks, kc) is the scheduling key, assigned at creation: ks is the
//     final seq of the event that produced it (or a fresh counter value
//     for external Send/After, with kc = 0) and kc is the index among
//     that producer's effects. The key is a pure function of causal
//     origin — independent of which lane pushed the event and of the
//     real-time interleaving of lanes — and globally unique, because
//     every counter value seeds the keys of exactly one event's effects.
//   - seq is the final execution sequence, assigned when the event's tick
//     batch is renumbered on the driving goroutine in merged (at, ks, kc)
//     order. It exists so the event's own effects can be keyed.
type event struct {
	at   Time
	ks   uint64
	seq  uint64
	kc   uint32
	kind eventKind
	node NodeID // destination (message) or owner (timer)
	late bool   // held beyond the synchrony bound by the fault model
	msg  Message
	fn   func(*Context)
}

// eventHeap orders events by (at, ks, kc). It backs the calendar queue's
// far-future overflow and serves as the ordering oracle in tests.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return keyLess(h[i], h[j]) < 0
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// xmsg is one cross-lane send in flight between two lanes: a value record
// (never a pooled pointer) so event structs stay inside their owning
// lane's free list. The destination lane materialises it into one of its
// own events during the exchange phase; late carries the fault model's
// beyond-bound verdict across.
type xmsg struct {
	at   Time
	ks   uint64
	kc   uint32
	late bool
	msg  Message
}

// lane is one scheduler shard: a calendar queue, pools, batch scratch, and
// cross-lane outboxes, all owned by one worker lane. During a macro-step a
// lane's state is touched only by the worker running that lane (or by the
// driving goroutine in the serial phases), so no locks are needed.
type lane struct {
	idx     int
	q       *calQueue
	batch   []*event // current tick's events, key-sorted by popBatch
	skip    []bool
	anySkip bool
	nextAt  Time // earliest pending tick, refreshed by minTick
	hasNext bool
	drops   uint64   // dead-destination and fault-fate drops recorded this step
	freeEv  []*event // lane-local event pool
	execCtx Context  // one reusable effect buffer per lane
	xout    [][]xmsg // xout[dst]: sends produced here for another lane
}

func newLane(idx int, horizon Time, lanes int) *lane {
	return &lane{idx: idx, q: newCalQueue(horizon), xout: make([][]xmsg, lanes)}
}

// newEvent takes an event from the lane's free list (or allocates the
// first time). Events return to the list of the lane that delivered them.
func (ln *lane) newEvent() *event {
	if k := len(ln.freeEv) - 1; k >= 0 {
		ev := ln.freeEv[k]
		ln.freeEv[k] = nil
		ln.freeEv = ln.freeEv[:k]
		return ev
	}
	return &event{}
}

func (ln *lane) freeEvent(ev *event) {
	*ev = event{} // drop payload/fn references before pooling
	ln.freeEv = append(ln.freeEv, ev)
}

// nodeSlot is the dense per-node table entry: the handler plus the
// worker-lane assignment precomputed at Register/SetParallelism time, so
// a step needs no per-batch map or order slice to group events.
type nodeSlot struct {
	h    Handler
	lane int32
}

// Network is the simulator instance.
type Network struct {
	latency     Latency
	seed        uint64 // raw seed fed to DrawKeyed
	now         Time
	ctr         uint64          // unified key/sequence counter (see event)
	slots       []nodeSlot      // handler + lane per node, indexed by NodeID
	down        map[NodeID]bool // crashed/offline nodes drop all traffic
	faults      Faults          // nil = fault-free (byte-identical to the pre-fault engine)
	sendAudit   func(Message)   // optional per-send hook (size audits in tests); runs on lane workers
	metrics     *Metrics
	parallelism int
	delivered   uint64
	dropped     uint64
	horizon     Time

	lanes   []*lane
	heads   []int    // renumber merge cursors
	moved   []*event // SetParallelism redistribution scratch
	stepWG  sync.WaitGroup
	lastPop int // previous batch size, steers pooled-vs-inline pop
	folds   int // batches since the last mergeLanes fold
}

// mergeEvery is how many batches may elapse between folds of the per-lane
// metrics shards into the shared maps. Counters are monotone sums and the
// phase label is constant within a drain, so folding is deferrable; every
// drain (and the public Step) folds before returning control to readers.
const mergeEvery = 32

// poolCutoff is the batch size below which a macro-step runs its phases
// inline on the driving goroutine instead of dispatching the worker pool:
// for a handful of events, three pool barriers cost more than the work.
const poolCutoff = 64

// New creates a network with the given latency model and seed.
func New(latency Latency, seed int64) *Network {
	h := latency.PartialMax
	if latency.Gamma > h {
		h = latency.Gamma
	}
	if latency.Delta > h {
		h = latency.Delta
	}
	n := &Network{
		latency: latency,
		seed:    uint64(seed),
		down:    make(map[NodeID]bool),
		metrics: NewMetrics(),
		// Cover the protocol's timer horizon (up to 4Γ phase guards and 6Δ
		// watchdog sweeps) so only fault-model lag overflows to the heap.
		horizon:     4*h + 64,
		parallelism: 1,
	}
	n.lanes = []*lane{newLane(0, n.horizon, 1)}
	n.metrics.ensureLanes(1)
	return n
}

// SetParallelism sets the worker-lane count. k ≤ 0 selects GOMAXPROCS.
// Lane assignments of already registered nodes are recomputed and pending
// events are redistributed across the new lane layout (their scheduling
// keys travel with them, so the merged order — and therefore the run — is
// unchanged), so call order against Register and traffic does not matter.
func (n *Network) SetParallelism(k int) {
	if k <= 0 {
		k = runtime.GOMAXPROCS(0)
	}
	if k == n.parallelism && len(n.lanes) == k {
		return
	}
	n.moved = n.moved[:0]
	for _, ln := range n.lanes {
		n.moved = ln.q.drain(n.moved)
	}
	n.parallelism = k
	for len(n.lanes) < k {
		n.lanes = append(n.lanes, newLane(len(n.lanes), n.horizon, k))
	}
	n.lanes = n.lanes[:k]
	for _, ln := range n.lanes {
		ln.q.reset(n.now)
		for len(ln.xout) < k {
			ln.xout = append(ln.xout, nil)
		}
		ln.xout = ln.xout[:k]
	}
	for id := range n.slots {
		n.slots[id].lane = int32(id % k)
	}
	for i, ev := range n.moved {
		n.lanes[n.laneFor(ev.node, k)].q.push(ev)
		n.moved[i] = nil
	}
	n.moved = n.moved[:0]
	n.metrics.ensureLanes(k)
}

// Register installs the handler for a node. Re-registering replaces it
// (used when a node changes role between rounds). The node's worker lane
// is precomputed here: a stable modulo hash of the ID, so routing an
// event to its lane is a single indexed lookup.
func (n *Network) Register(id NodeID, h Handler) {
	if id < 0 {
		panic("simnet: Register with negative NodeID")
	}
	for int(id) >= len(n.slots) {
		n.slots = append(n.slots, nodeSlot{lane: int32(len(n.slots) % n.parallelism)})
	}
	n.slots[id].h = h
}

func (n *Network) handlerOf(id NodeID) Handler {
	if id >= 0 && int(id) < len(n.slots) {
		return n.slots[id].h
	}
	return nil
}

// laneFor returns the node's worker lane under the given lane count —
// the precomputed slot value on the hot path, the same modulo hash for
// unregistered IDs.
func (n *Network) laneFor(id NodeID, lanes int) int {
	if id >= 0 && int(id) < len(n.slots) {
		return int(n.slots[id].lane)
	}
	l := int(id) % lanes
	if l < 0 {
		l += lanes
	}
	return l
}

// laneOf returns the lane that owns the node's events.
func (n *Network) laneOf(id NodeID) *lane {
	return n.lanes[n.laneFor(id, len(n.lanes))]
}

// SetDown marks a node offline (true) or online (false). Offline nodes
// silently drop incoming messages and their timers do not fire — the
// paper's "simply pretending to be offline" behaviour. Recovery deletes
// the entry, so a fully recovered network skips the dead-destination
// pre-pass again.
func (n *Network) SetDown(id NodeID, down bool) {
	if down {
		n.down[id] = true
	} else {
		delete(n.down, id)
	}
}

// SetFaults installs a fault model (nil or NoFaults restores the
// fault-free engine, which is byte-identical to a network that never had
// SetFaults called). Install before traffic starts; the model is read
// without synchronisation during runs.
func (n *Network) SetFaults(f Faults) {
	if _, none := f.(NoFaults); none {
		f = nil
	}
	n.faults = f
}

// SetSendAudit installs a hook observing every message at the moment it is
// sent, before fault fates or delays are drawn. Tests use it to cross-check
// each Send's declared Size against the wire codec's SizeHint; nil removes
// the hook. Handler sends are audited on the worker lanes that execute the
// handlers, concurrently and in no fixed order, so the hook must be safe
// for concurrent use; it must not re-enter the Network.
func (n *Network) SetSendAudit(fn func(Message)) { n.sendAudit = fn }

// Metrics exposes the traffic accounting.
func (n *Network) Metrics() *Metrics { return n.metrics }

// Now returns the current virtual time.
func (n *Network) Now() Time { return n.now }

// Delivered returns the total number of messages delivered so far.
func (n *Network) Delivered() uint64 { return n.delivered }

// Dropped returns the number of messages lost to faults or dead
// destinations so far.
func (n *Network) Dropped() uint64 { return n.dropped }

// Send enqueues a message from outside any handler (e.g. test drivers and
// round orchestration). Delay is derived from the link's synchrony bound
// and a fresh scheduling key.
func (n *Network) Send(from, to NodeID, tag string, payload any, size int) {
	n.enqueueMessage(Message{From: from, To: to, Tag: tag, Payload: payload, Size: size})
}

// After schedules fn on the given node after delay d.
func (n *Network) After(node NodeID, d Time, fn func(*Context)) {
	if d < 1 {
		d = 1
	}
	ln := n.laneOf(node)
	ev := ln.newEvent()
	ev.at, ev.ks, ev.kind, ev.node, ev.fn = n.now+d, n.nextKey(), evTimer, node, fn
	ln.q.push(ev)
}

// nextKey consumes one counter value for an externally created event's
// scheduling key (kc = 0). Handler effects never consume the counter at
// creation — they are keyed by their producer's seq, which the renumber
// pass drew from the same counter — so keys stay globally unique.
func (n *Network) nextKey() uint64 {
	k := n.ctr
	n.ctr++
	return k
}

// enqueueMessage is the external (driver-goroutine) send path. It records
// metrics directly into the shared maps — the phase label may change
// between drains, so external sends must not sit in a lane shard. The key
// is drawn before the fault fate, so a dropped message consumes its key
// exactly as a delivered one does; only a crashed sender's send draws none.
func (n *Network) enqueueMessage(msg Message) {
	if n.sendAudit != nil {
		n.sendAudit(msg)
	}
	if n.faults != nil && n.faults.Down(n.now, msg.From) {
		return // a crashed sender transmits nothing
	}
	n.metrics.recordSend(msg)
	ks := n.nextKey()
	at, late := n.now+n.latency.DrawKeyed(n.seed, ks, 0, msg.From, msg.To), false
	if n.faults != nil {
		fate := n.faults.Fate(n.now, msg.From, msg.To, ks, 0)
		if fate.Drop {
			n.metrics.recordDropped(msg)
			n.dropped++
			return
		}
		// Late is tallied at delivery, not here: a lagged message that dies
		// at a crashed destination counts as dropped, never as late.
		at, late = at+fate.Delay, fate.Delay > 0
	}
	ln := n.laneOf(msg.To)
	ev := ln.newEvent()
	ev.at, ev.ks, ev.kind, ev.node, ev.late, ev.msg = at, ks, evMessage, msg.To, late, msg
	ln.q.push(ev)
}

// Context is the per-delivery effect buffer handed to handlers. Handlers
// must route all sends and timers through it; the executing lane applies
// the effects right after the handler returns, keyed by the delivery's
// seq and the effect's index, so their order never depends on the lanes.
type Context struct {
	Node NodeID
	now  Time
	out  []effect
}

type effect struct {
	isTimer bool
	msg     Message
	delay   Time
	fn      func(*Context)
}

// Now returns the virtual time of the current delivery.
func (c *Context) Now() Time { return c.now }

// Send transmits a message from the handling node.
func (c *Context) Send(to NodeID, tag string, payload any, size int) {
	c.out = append(c.out, effect{msg: Message{From: c.Node, To: to, Tag: tag, Payload: payload, Size: size}})
}

// Broadcast sends the same message to each destination.
func (c *Context) Broadcast(tos []NodeID, tag string, payload any, size int) {
	for _, to := range tos {
		c.Send(to, tag, payload, size)
	}
}

// After schedules fn on this node after d ticks.
func (c *Context) After(d Time, fn func(*Context)) {
	c.out = append(c.out, effect{isTimer: true, delay: d, fn: fn})
}

// NewContext returns a standalone effect buffer for transports that run
// handlers outside a Network — the live transport hands one to each
// handler invocation and drains it with Effects. Contexts created here are
// not pooled; the Network's own deliveries reuse one Context per lane.
func NewContext(node NodeID, now Time) *Context {
	return &Context{Node: node, now: now}
}

// Effects replays the buffered effects in the order the handler produced
// them: onMsg for each Send/Broadcast, onTimer for each After (with the
// handler-requested delay, unclamped). The buffer is left intact.
func (c *Context) Effects(onMsg func(Message), onTimer func(d Time, fn func(*Context))) {
	for _, ef := range c.out {
		if ef.isTimer {
			onTimer(ef.delay, ef.fn)
		} else {
			onMsg(ef.msg)
		}
	}
}

// minTick refreshes every lane's earliest pending tick and returns the
// cross-lane minimum — the serial reduction that replaced the old global
// peek. O(lanes) slice-header scans per macro-step.
func (n *Network) minTick() (Time, bool) {
	t := Time(-1)
	for _, ln := range n.lanes {
		lt, ok := ln.q.peek()
		ln.nextAt, ln.hasNext = lt, ok
		if ok && (t < 0 || lt < t) {
			t = lt
		}
	}
	return t, t >= 0
}

// Step processes every event scheduled at the earliest pending timestamp
// and folds the metrics shards so readers see the result immediately.
// It returns false when no events remain.
func (n *Network) Step() bool {
	t, ok := n.minTick()
	if !ok {
		return false
	}
	n.stepAt(t)
	n.metrics.mergeLanes()
	n.folds = 0
	return true
}

// stepAt runs the macro-step at tick t (which minTick reported as the
// cross-lane earliest): parallel per-lane pop, serial renumber, parallel
// execution (fault fates and send audits included), parallel cross-lane
// exchange, serial counter fold.
func (n *Network) stepAt(t Time) {
	n.now = t

	// Phase A: every lane with events at t pops and key-sorts its batch,
	// running the dead-destination pre-pass (skip flags + drop accounting
	// into the lane's own metrics shard) as it goes. Pooled only when the
	// previous batch suggests the sort work dwarfs the barrier cost.
	if n.parallelism > 1 && n.lastPop >= poolCutoff {
		n.dispatch(phasePop)
	} else {
		for _, ln := range n.lanes {
			if ln.hasNext && ln.nextAt == t {
				n.popLane(ln)
			}
		}
	}

	// Serial barrier: assign final seqs in merged (ks, kc) order — the one
	// canonical order every lane layout produces — so the keys of every
	// event's effects are independent of parallelism.
	total := n.renumber()
	n.lastPop = total

	// Phase B: execute. Effects apply inline — timers and same-lane sends
	// push into the lane's own calendar queue, cross-lane sends land in
	// value outboxes; fault fates are pure keyed draws, so every lane
	// consults them independently.
	pooled := n.parallelism > 1 && total > 1
	if pooled {
		n.dispatch(phaseExecFast)
	} else {
		for _, ln := range n.lanes {
			if len(ln.batch) > 0 {
				n.execLaneFast(ln)
			}
		}
	}
	// Phase C: destination lanes drain the outboxes addressed to them,
	// materialising each record from their own free list.
	xtotal := 0
	for _, src := range n.lanes {
		for _, recs := range src.xout {
			xtotal += len(recs)
		}
	}
	if xtotal > 0 {
		if pooled && xtotal >= poolCutoff {
			n.dispatch(phaseExchange)
		} else {
			for _, ln := range n.lanes {
				n.exchangeLane(ln)
			}
		}
	}

	// Serial fold: batch counters and shard amortisation.
	for _, ln := range n.lanes {
		if len(ln.batch) > 0 {
			n.delivered += uint64(len(ln.batch))
			ln.batch = ln.batch[:0]
		}
		if ln.drops > 0 {
			n.dropped += ln.drops
			ln.drops = 0
		}
	}
	n.folds++
	if n.folds >= mergeEvery {
		n.metrics.mergeLanes()
		n.folds = 0
	}
}

// popLane pops one lane's tick batch and runs the dead-destination
// pre-pass: events owned by a node that is down (SetDown or the fault
// model's crash schedule) are flagged, and skipped messages are accounted
// as dropped into the lane's own shard. Runs on pool workers; touches only
// lane-owned state plus read-only maps and the pure Faults.Down.
func (n *Network) popLane(ln *lane) {
	ln.batch = ln.q.popBatch(n.now, ln.batch[:0])
	ln.anySkip = false
	if len(n.down) == 0 && n.faults == nil {
		return
	}
	if cap(ln.skip) < len(ln.batch) {
		ln.skip = make([]bool, len(ln.batch))
	}
	ln.skip = ln.skip[:len(ln.batch)]
	sh := &n.metrics.lanes[ln.idx]
	for i, ev := range ln.batch {
		s := n.down[ev.node] || (n.faults != nil && n.faults.Down(n.now, ev.node))
		ln.skip[i] = s
		if s {
			ln.anySkip = true
			if ev.kind == evMessage {
				sh.recordDropped(ev.msg)
				ln.drops++
			}
		}
	}
}

// renumber assigns final seqs to the popped batch in merged (ks, kc)
// order via an L-way merge over the key-sorted lane batches. Returns the
// batch total.
func (n *Network) renumber() int {
	total, active := 0, 0
	var single *lane
	for _, ln := range n.lanes {
		if len(ln.batch) > 0 {
			total += len(ln.batch)
			active++
			single = ln
		}
	}
	if total == 0 {
		return 0
	}
	if active == 1 {
		for _, ev := range single.batch {
			ev.seq = n.ctr
			n.ctr++
		}
		return total
	}
	L := len(n.lanes)
	if cap(n.heads) < L {
		n.heads = make([]int, L)
	}
	heads := n.heads[:L]
	for i := range heads {
		heads[i] = 0
	}
	for done := 0; done < total; done++ {
		var best *event
		bi := -1
		for i, ln := range n.lanes {
			if heads[i] < len(ln.batch) {
				ev := ln.batch[heads[i]]
				if best == nil || keyLess(ev, best) < 0 {
					best, bi = ev, i
				}
			}
		}
		best.seq = n.ctr
		n.ctr++
		heads[bi]++
	}
	return total
}

// execLaneFast runs one lane's batch: the handler fires with the lane's
// reusable Context, then its effects apply inline — timers and same-lane
// sends push into this lane's calendar queue from this lane's free list,
// cross-lane sends append to the value outbox for the destination lane.
// Each send is audited, charged to this lane's metrics shard, and given
// its fault fate here: a pure keyed draw, so the verdict is the same on
// any lane. Runs on pool workers; all state touched is lane-owned.
func (n *Network) execLaneFast(ln *lane) {
	sh := &n.metrics.lanes[ln.idx]
	ctx := &ln.execCtx
	t := n.now
	L := len(n.lanes)
	for i, ev := range ln.batch {
		if ln.anySkip && ln.skip[i] {
			ln.freeEvent(ev)
			continue
		}
		ctx.Node, ctx.now = ev.node, t
		switch ev.kind {
		case evMessage:
			h := n.handlerOf(ev.node)
			if h == nil {
				ln.freeEvent(ev)
				continue
			}
			sh.recordRecv(ev.msg)
			if ev.late {
				sh.recordLate(ev.msg)
			}
			h(ctx, ev.msg)
		case evTimer:
			fn := ev.fn
			fn(ctx)
		}
		pseq, node := ev.seq, ev.node
		ln.freeEvent(ev) // may be recycled for a child immediately below
		for idx := range ctx.out {
			ef := &ctx.out[idx]
			kc := uint32(idx)
			if ef.isTimer {
				d := ef.delay
				if d < 1 {
					d = 1
				}
				ch := ln.newEvent()
				ch.at, ch.ks, ch.kc, ch.kind, ch.node, ch.fn = t+d, pseq, kc, evTimer, node, ef.fn
				ln.q.push(ch)
				continue
			}
			msg := ef.msg
			if n.sendAudit != nil {
				n.sendAudit(msg)
			}
			sh.recordSend(msg)
			at, late := t+n.latency.DrawKeyed(n.seed, pseq, kc, msg.From, msg.To), false
			if n.faults != nil {
				fate := n.faults.Fate(t, msg.From, msg.To, pseq, kc)
				if fate.Drop {
					sh.recordDropped(msg)
					ln.drops++
					continue
				}
				at, late = at+fate.Delay, fate.Delay > 0
			}
			if dl := n.laneFor(msg.To, L); dl == ln.idx {
				ch := ln.newEvent()
				ch.at, ch.ks, ch.kc, ch.kind, ch.node, ch.late, ch.msg = at, pseq, kc, evMessage, msg.To, late, msg
				ln.q.push(ch)
			} else {
				ln.xout[dl] = append(ln.xout[dl], xmsg{at: at, ks: pseq, kc: kc, late: late, msg: msg})
			}
		}
		clear(ctx.out)
		ctx.out = ctx.out[:0]
	}
}

// exchangeLane drains every outbox addressed to this lane, materialising
// each record as an event from this lane's free list. Runs on pool
// workers: slot xout[src][dst] is written only by src during execution
// and only by dst here, with the exec barrier ordering the two.
func (n *Network) exchangeLane(dst *lane) {
	for _, src := range n.lanes {
		recs := src.xout[dst.idx]
		if len(recs) == 0 {
			continue
		}
		for i := range recs {
			x := &recs[i]
			ev := dst.newEvent()
			ev.at, ev.ks, ev.kc, ev.kind, ev.node, ev.late, ev.msg = x.at, x.ks, x.kc, evMessage, x.msg.To, x.late, x.msg
			dst.q.push(ev)
			recs[i] = xmsg{} // drop payload references
		}
		src.xout[dst.idx] = recs[:0]
	}
}

// Run processes events until the queue is empty or virtual time would
// exceed `until` (0 means no limit), then folds the metrics shards so
// readers between drains always see fully merged accounting. It returns
// the number of events processed.
func (n *Network) Run(until Time) uint64 {
	start := n.delivered
	for {
		t, ok := n.minTick()
		if !ok || (until > 0 && t > until) {
			break
		}
		n.stepAt(t)
	}
	n.metrics.mergeLanes()
	n.folds = 0
	return n.delivered - start
}

// RunUntilIdle drains the event queue completely.
func (n *Network) RunUntilIdle() uint64 { return n.Run(0) }

// Pending returns the number of queued events (for tests).
func (n *Network) Pending() int {
	total := 0
	for _, ln := range n.lanes {
		total += ln.q.len()
	}
	return total
}

// String summarises the simulator state.
func (n *Network) String() string {
	return fmt.Sprintf("simnet{t=%d, pending=%d, delivered=%d}", n.now, n.Pending(), n.delivered)
}

// Sort helper used by higher layers for canonical node sets.
func SortNodeIDs(ids []NodeID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}
