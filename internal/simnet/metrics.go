package simnet

import (
	"sort"
	"strings"
	"sync"
)

// Counter accumulates message and byte totals.
type Counter struct {
	Messages uint64
	Bytes    uint64
}

func (c *Counter) add(size int) {
	c.Messages++
	c.Bytes += uint64(size)
}

// Add merges another counter into this one.
func (c *Counter) Add(o Counter) {
	c.Messages += o.Messages
	c.Bytes += o.Bytes
}

type phaseNode struct {
	phase string
	node  NodeID
}

// Metrics accounts traffic per phase, per node, and per tag. The protocol
// layer labels phases (SetPhase) and later aggregates per-node counters by
// role to reproduce Table II.
//
// Fault accounting: a message lost in flight (or addressed to a crashed
// node) is charged to the sender's `sent` counters — the transmission
// happened — and to the `dropped` counters keyed by the destination that
// never saw it, but never to `received`. Messages held beyond their
// synchrony bound are charged to `late` (and still to `received` when they
// eventually arrive). Keeping the delivered-bytes maps free of lost
// traffic is what keeps Table II faithful under fault models.
type Metrics struct {
	mu        sync.Mutex
	phase     string
	sent      map[phaseNode]*Counter
	received  map[phaseNode]*Counter
	dropped   map[phaseNode]*Counter
	byTag     map[string]*Counter
	total     Counter
	totalDrop Counter
	totalLate Counter
	// lanes are the per-worker shards; lane i is written exclusively by
	// the worker running lane i of the current macro-step (receives,
	// sends, fault-fate and dead-destination drops), and folded into the
	// maps above by mergeLanes. The fold
	// is amortised: the Network folds every mergeEvery batches and at the
	// end of every drain, so readers — which only run between drains —
	// always see fully merged accounting. The phase label is constant
	// within a drain (SetPhase happens between drains), which is what
	// makes deferring the fold safe.
	lanes []laneShard
}

// laneShard accumulates one worker lane's traffic without locks. Entries
// persist across batches (zeroed, not deleted, at fold) so steady-state
// recording allocates nothing; touched lists the nodes and tags with live
// counts since the last fold.
type laneShard struct {
	entries    map[NodeID]*laneEntry
	touched    []NodeID
	tags       map[string]*Counter
	tagTouched []string
	late       Counter
	sentTotal  Counter
	dropTotal  Counter
}

// laneEntry carries one node's shard-local counters: receives keyed by
// the node as destination, sends keyed by it as sender, drops keyed by it
// as the destination that missed the message.
type laneEntry struct {
	recv   Counter
	sent   Counter
	drop   Counter
	active bool
}

func (s *laneShard) entry(id NodeID) *laneEntry {
	e := s.entries[id]
	if e == nil {
		e = &laneEntry{}
		s.entries[id] = e
	}
	if !e.active {
		e.active = true
		s.touched = append(s.touched, id)
	}
	return e
}

func (s *laneShard) recordRecv(msg Message) {
	s.entry(msg.To).recv.add(msg.Size)
}

func (s *laneShard) recordLate(msg Message) {
	s.late.add(msg.Size)
}

func (s *laneShard) recordSend(msg Message) {
	s.entry(msg.From).sent.add(msg.Size)
	tc := s.tags[msg.Tag]
	if tc == nil {
		tc = &Counter{}
		s.tags[msg.Tag] = tc
	}
	if tc.Messages == 0 {
		s.tagTouched = append(s.tagTouched, msg.Tag)
	}
	tc.add(msg.Size)
	s.sentTotal.add(msg.Size)
}

func (s *laneShard) recordDropped(msg Message) {
	s.entry(msg.To).drop.add(msg.Size)
	s.dropTotal.add(msg.Size)
}

// ensureLanes grows the shard set to at least k lanes. Called by the
// Network at construction and SetParallelism, never concurrently with
// workers.
func (m *Metrics) ensureLanes(k int) {
	if k < 1 {
		k = 1
	}
	for len(m.lanes) < k {
		m.lanes = append(m.lanes, laneShard{
			entries: make(map[NodeID]*laneEntry),
			tags:    make(map[string]*Counter),
		})
	}
}

// mergeLanes folds every lane shard into the shared maps under the
// current phase label. The fold is a sum of commutative counters, so the
// result is deterministic no matter how the parallel lanes interleaved.
func (m *Metrics) mergeLanes() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for li := range m.lanes {
		s := &m.lanes[li]
		for _, id := range s.touched {
			e := s.entries[id]
			if e.recv.Messages > 0 {
				k := phaseNode{m.phase, id}
				c := m.received[k]
				if c == nil {
					c = &Counter{}
					m.received[k] = c
				}
				c.Add(e.recv)
			}
			if e.sent.Messages > 0 {
				k := phaseNode{m.phase, id}
				c := m.sent[k]
				if c == nil {
					c = &Counter{}
					m.sent[k] = c
				}
				c.Add(e.sent)
			}
			if e.drop.Messages > 0 {
				k := phaseNode{m.phase, id}
				c := m.dropped[k]
				if c == nil {
					c = &Counter{}
					m.dropped[k] = c
				}
				c.Add(e.drop)
			}
			*e = laneEntry{}
		}
		s.touched = s.touched[:0]
		for _, tag := range s.tagTouched {
			tc := s.tags[tag]
			c := m.byTag[tag]
			if c == nil {
				c = &Counter{}
				m.byTag[tag] = c
			}
			c.Add(*tc)
			*tc = Counter{}
		}
		s.tagTouched = s.tagTouched[:0]
		if s.sentTotal.Messages > 0 {
			m.total.Add(s.sentTotal)
			s.sentTotal = Counter{}
		}
		if s.dropTotal.Messages > 0 {
			m.totalDrop.Add(s.dropTotal)
			s.dropTotal = Counter{}
		}
		if s.late.Messages > 0 {
			m.totalLate.Add(s.late)
			s.late = Counter{}
		}
	}
}

// NewMetrics returns empty accounting.
func NewMetrics() *Metrics {
	return &Metrics{
		phase:    "init",
		sent:     make(map[phaseNode]*Counter),
		received: make(map[phaseNode]*Counter),
		dropped:  make(map[phaseNode]*Counter),
		byTag:    make(map[string]*Counter),
	}
}

// SetPhase labels all subsequent traffic with the given phase name. Call
// only between drains: the lane shards fold under the label active when
// the drain ends.
func (m *Metrics) SetPhase(phase string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.phase = phase
}

// Phase returns the current phase label.
func (m *Metrics) Phase() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.phase
}

func (m *Metrics) recordSend(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := phaseNode{m.phase, msg.From}
	c := m.sent[k]
	if c == nil {
		c = &Counter{}
		m.sent[k] = c
	}
	c.add(msg.Size)
	tc := m.byTag[msg.Tag]
	if tc == nil {
		tc = &Counter{}
		m.byTag[msg.Tag] = tc
	}
	tc.add(msg.Size)
	m.total.add(msg.Size)
}

// recordDropped charges a message lost in flight (or delivered to a dead
// node) to the dropped counters of the destination that missed it. The
// message was already charged to the sender by recordSend; it must never
// reach the received maps.
func (m *Metrics) recordDropped(msg Message) {
	m.mu.Lock()
	defer m.mu.Unlock()
	k := phaseNode{m.phase, msg.To}
	c := m.dropped[k]
	if c == nil {
		c = &Counter{}
		m.dropped[k] = c
	}
	c.add(msg.Size)
	m.totalDrop.add(msg.Size)
}

// Sent returns the sender-side counter for (phase, node).
func (m *Metrics) Sent(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.sent[phaseNode{phase, node}]; c != nil {
		return *c
	}
	return Counter{}
}

// Received returns the receiver-side counter for (phase, node).
func (m *Metrics) Received(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.received[phaseNode{phase, node}]; c != nil {
		return *c
	}
	return Counter{}
}

// Dropped returns the lost-traffic counter for (phase, destination node).
func (m *Metrics) Dropped(phase string, node NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.dropped[phaseNode{phase, node}]; c != nil {
		return *c
	}
	return Counter{}
}

// DroppedByNodes sums lost-traffic counters for a phase over a node set.
// The lock is taken once for the whole set, not once per node.
func (m *Metrics) DroppedByNodes(phase string, nodes []NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum Counter
	for _, id := range nodes {
		if c := m.dropped[phaseNode{phase, id}]; c != nil {
			sum.Add(*c)
		}
	}
	return sum
}

// DroppedTotal returns whole-simulation lost traffic.
func (m *Metrics) DroppedTotal() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalDrop
}

// LateTotal returns whole-simulation beyond-bound traffic (delivered, but
// after the fault model's extra delay).
func (m *Metrics) LateTotal() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.totalLate
}

// SentByNodes sums sender-side counters for a phase over a node set. The
// lock is taken once for the whole set, not once per node — Table II
// aggregation walks full rosters, which at large scale made per-node
// locking the dominant cost of report collection.
func (m *Metrics) SentByNodes(phase string, nodes []NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum Counter
	for _, id := range nodes {
		if c := m.sent[phaseNode{phase, id}]; c != nil {
			sum.Add(*c)
		}
	}
	return sum
}

// TrafficByNodes sums sent+received counters for a phase over a node set —
// the "communication complexity" of the role in that phase. The lock is
// taken once for the whole set.
func (m *Metrics) TrafficByNodes(phase string, nodes []NodeID) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum Counter
	for _, id := range nodes {
		k := phaseNode{phase, id}
		if c := m.sent[k]; c != nil {
			sum.Add(*c)
		}
		if c := m.received[k]; c != nil {
			sum.Add(*c)
		}
	}
	return sum
}

// Tag returns the counter for a message tag.
func (m *Metrics) Tag(tag string) Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := m.byTag[tag]; c != nil {
		return *c
	}
	return Counter{}
}

// Tags lists observed tags in sorted order.
func (m *Metrics) Tags() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.byTag))
	for t := range m.byTag {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// Total returns whole-simulation traffic.
func (m *Metrics) Total() Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// Forget deletes every sent, received and dropped counter whose phase
// label starts with prefix. Per-tag and whole-simulation totals are kept.
// Long runs use it to bound retention: a caller that labels phases per
// round forgets each round once it has read it.
func (m *Metrics) Forget(prefix string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, counters := range []map[phaseNode]*Counter{m.sent, m.received, m.dropped} {
		for k := range counters {
			if strings.HasPrefix(k.phase, prefix) {
				delete(counters, k)
			}
		}
	}
}

// Counters returns the number of (phase, node) counters held across the
// sent, received and dropped maps — the accounting's retained size.
func (m *Metrics) Counters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.sent) + len(m.received) + len(m.dropped)
}

// Phases lists phase labels that saw traffic, sorted. A phase counts as
// having seen traffic when anything was sent, received, or dropped under
// its label — a phase whose every message was lost still shows up.
func (m *Metrics) Phases() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	set := map[string]bool{}
	for k := range m.sent {
		set[k.phase] = true
	}
	for k := range m.received {
		set[k.phase] = true
	}
	for k := range m.dropped {
		set[k.phase] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
