package transport

import (
	"container/heap"
	"errors"
	"fmt"
	"io"
	"sync"

	"cycledger/internal/simnet"
)

// Live runs one committee population as real concurrent processes: every
// registered node is a goroutine, and every message crosses between them
// only as codec-encoded bytes over a Mesh link. A conservative clock on
// the RunUntilIdle caller's goroutine owns virtual time and the event
// heap; it derives per-message delays with the same keyed hash as
// *simnet.Network, dispatches each tick's deliveries to the destination
// goroutines concurrently, and applies their buffered effects in global
// sequence order. The result is the simnet's exact event schedule —
// identical RoundReports, virtual durations included — produced by real
// message passing.
//
// Mechanics of one message: at send time the clock records metrics,
// derives the delay from the message's scheduling key with the same pure
// hash the simulator uses (Latency.DrawKeyed), pushes the delivery event,
// and hands the encoded frame to the (from → to) link's write pump. The
// destination's read loop decodes frames as they arrive and files them in
// the node's inbox under the event's sequence number; when the clock
// later dispatches the delivery, the node goroutine claims exactly that
// payload (blocking briefly if the bytes are still in flight), runs the
// handler, and returns the buffered effects. Timers stay in-process:
// closures cannot be serialised, and the oracle contract only concerns
// messages.
//
// Key parity with the simulator: the clock mirrors the simnet's unified
// key/sequence counter (renum). External Sends and Afters consume one
// counter value each; every popped event — skipped or not — consumes one
// as its renumber seq, in batch order; a handler effect is keyed by its
// producer's renumber seq and its index among that producer's effects.
// The clock pushes events in ascending key order (external pushes consume
// the counter as they go, and batch effects apply in renumber × index
// order), so the heap's (at, push-seq) order coincides with the
// simulator's canonical (at, key) order tick by tick.
//
// Restrictions: fault models are rejected by SetFaults (fault injection
// belongs to the simulator oracle), and SetParallelism is a no-op — the
// live transport is always one goroutine per node. A codec or link
// failure is a programming error (the codec is fuzz-hardened and the
// mesh in-process), so the clock panics with the underlying error rather
// than silently diverging from the oracle.
type Live struct {
	lat     simnet.Latency
	seed    uint64 // raw seed fed to DrawKeyed, mirroring the simulator
	codec   Codec
	mesh    Mesh
	metrics *simnet.Metrics
	audit   func(simnet.Message)

	now   simnet.Time
	seq   uint64 // heap push order; also the inbox frame key
	renum uint64 // the simulator's unified key/sequence counter, mirrored
	heap  liveHeap
	down  map[simnet.NodeID]bool

	nodes map[simnet.NodeID]*liveNode
	links map[linkKey]*link

	delivered uint64
	dropped   uint64
	closed    bool
}

// NewLive builds a live transport over the given mesh. The latency model
// and seed must be the ones a simnet oracle run would use for delay
// parity to hold.
func NewLive(codec Codec, mesh Mesh, lat simnet.Latency, seed int64) *Live {
	return &Live{
		lat:     lat,
		seed:    uint64(seed),
		codec:   codec,
		mesh:    mesh,
		metrics: simnet.NewMetrics(),
		down:    make(map[simnet.NodeID]bool),
		nodes:   make(map[simnet.NodeID]*liveNode),
		links:   make(map[linkKey]*link),
	}
}

// LiveFactory returns a Factory building an in-memory live transport
// (PipeMesh links) with the given codec.
func LiveFactory(codec Codec) Factory {
	return func(lat simnet.Latency, seed int64) (Transport, error) {
		return NewLive(codec, NewPipeMesh(), lat, seed), nil
	}
}

type liveEvent struct {
	at    simnet.Time
	seq   uint64
	timer bool
	node  simnet.NodeID
	// noLink marks a message to an unregistered destination: it advances
	// virtual time and the delivery count like any event, but no bytes were
	// sent and no handler runs — mirroring the simulator.
	noLink bool
	fn     func(*simnet.Context)
	// meta carries the message's accounting fields (never the payload,
	// which travels the link) for drop bookkeeping at delivery time.
	meta simnet.Message
}

// liveHeap orders events by (at, seq), the clock's delivery queue.
type liveHeap []*liveEvent

func (h liveHeap) Len() int { return len(h) }
func (h liveHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h liveHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *liveHeap) Push(x any)   { *h = append(*h, x.(*liveEvent)) }
func (h *liveHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type linkKey struct{ from, to simnet.NodeID }

// link is the sender-side end of one ordered node pair: a frame channel
// drained by a dedicated pump goroutine, so the clock never blocks on a
// rendezvous pipe write.
type link struct {
	ch chan []byte
}

// liveNode is one registered node: its goroutine, work channel, and the
// inbox where read loops file decoded payloads by clock sequence number.
type liveNode struct {
	id      simnet.NodeID
	handler simnet.Handler
	work    chan *nodeWork
	inbox   inbox
}

// nodeWork is one tick's deliveries for one node, executed in sequence
// order on the node's goroutine; the goroutine fills each slot's ctx and
// reports the first inbox failure on done.
type nodeWork struct {
	at    simnet.Time
	slots []*slot
	done  chan error
}

// slot pairs a batch event with the effect buffer its execution produced
// and the renumber seq the clock assigned it in batch order — the ks every
// effect of this event is keyed under.
type slot struct {
	ev    *liveEvent
	ctx   *simnet.Context
	renum uint64
}

var errClosed = errors.New("transport: live transport closed")

// inbox is a node's arrival buffer: decoded messages keyed by the clock
// seq of their delivery event. take blocks until the frame for its seq
// has crossed the link (or the inbox is poisoned by a link failure).
type inbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	msgs map[uint64]simnet.Message
	err  error
}

func (ib *inbox) init() {
	ib.cond = sync.NewCond(&ib.mu)
	ib.msgs = make(map[uint64]simnet.Message)
}

func (ib *inbox) put(seq uint64, msg simnet.Message) {
	ib.mu.Lock()
	ib.msgs[seq] = msg
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

func (ib *inbox) poison(err error) {
	ib.mu.Lock()
	if ib.err == nil {
		ib.err = err
	}
	ib.mu.Unlock()
	ib.cond.Broadcast()
}

func (ib *inbox) take(seq uint64) (simnet.Message, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		if msg, ok := ib.msgs[seq]; ok {
			delete(ib.msgs, seq)
			return msg, nil
		}
		if ib.err != nil {
			return simnet.Message{}, ib.err
		}
		ib.cond.Wait()
	}
}

// Register installs the handler for a node, creating its goroutine, inbox,
// and mesh listener on first registration; re-registering replaces the
// handler only.
func (l *Live) Register(id simnet.NodeID, h simnet.Handler) {
	if id < 0 {
		panic("transport: Register with negative NodeID")
	}
	if n, ok := l.nodes[id]; ok {
		n.handler = h
		return
	}
	n := &liveNode{id: id, handler: h, work: make(chan *nodeWork)}
	n.inbox.init()
	l.nodes[id] = n
	l.mesh.Listen(id, func(conn io.ReadCloser) { go l.runReadLoop(conn, n) })
	go l.runNode(n)
}

// runNode is a node's process: execute each dispatched delivery in
// sequence order, buffering effects in a fresh Context per event.
func (l *Live) runNode(n *liveNode) {
	for w := range n.work {
		var firstErr error
		for _, s := range w.slots {
			ctx := simnet.NewContext(n.id, w.at)
			s.ctx = ctx
			if s.ev.timer {
				s.ev.fn(ctx)
				continue
			}
			msg, err := n.inbox.take(s.ev.seq)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if n.handler == nil {
				continue
			}
			l.metrics.RecordRecv(msg)
			n.handler(ctx, msg)
		}
		w.done <- firstErr
	}
}

// runReadLoop drains one inbound connection: hello, then frames, each
// decoded and filed in the node's inbox. Close-induced read errors end
// the loop quietly; a decode failure poisons the inbox, which surfaces as
// a clock panic at the next delivery.
func (l *Live) runReadLoop(conn io.ReadCloser, n *liveNode) {
	defer conn.Close()
	if _, err := readHello(conn); err != nil {
		return
	}
	for {
		seq, msg, err := readFrame(conn, l.codec, n.id)
		if err != nil {
			if !benignReadError(err) {
				n.inbox.poison(err)
			}
			return
		}
		n.inbox.put(seq, msg)
	}
}

// benignReadError reports whether a read-loop error is an ordinary
// connection teardown rather than a protocol failure.
func benignReadError(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.ErrClosedPipe)
}

// linkTo returns the (from → to) link, dialing it and starting its write
// pump on first use.
func (l *Live) linkTo(from, to simnet.NodeID) *link {
	k := linkKey{from, to}
	if lk, ok := l.links[k]; ok {
		return lk
	}
	lk := &link{ch: make(chan []byte, 64)}
	l.links[k] = lk
	go l.runPump(from, l.nodes[to], lk)
	return lk
}

// runPump owns one link's sending end: dial, hello, then write frames
// until the channel closes. After any failure it keeps draining so the
// clock never blocks on a dead link; the failure is reported through the
// destination's inbox.
func (l *Live) runPump(from simnet.NodeID, dst *liveNode, lk *link) {
	w, werr := l.mesh.Dial(from, dst.id)
	if werr == nil {
		werr = writeHello(w, from)
	}
	for b := range lk.ch {
		if werr != nil {
			continue
		}
		if _, err := w.Write(b); err != nil {
			werr = err
		}
	}
	if werr != nil && !benignReadError(werr) {
		dst.inbox.poison(werr)
	}
	if w != nil {
		w.Close()
	}
}

// push assigns the event's global sequence number and queues it.
func (l *Live) push(ev *liveEvent) {
	ev.seq = l.seq
	l.seq++
	heap.Push(&l.heap, ev)
}

// send is the single message path — external Sends and handler effects
// both land here, in deterministic order on the clock goroutine, carrying
// the message's scheduling key (ks, kc). The audit → metrics → delay
// sequence mirrors the simulator's exactly; the delay itself is the same
// pure hash of (seed, key) the simulator computes, which is what keeps
// the two schedules in lockstep without a shared RNG.
func (l *Live) send(msg simnet.Message, ks uint64, kc uint32) {
	if l.audit != nil {
		l.audit(msg)
	}
	l.metrics.RecordSend(msg)
	d := l.lat.DrawKeyed(l.seed, ks, kc, msg.From, msg.To)
	ev := &liveEvent{
		at:   l.now + d,
		node: msg.To,
		meta: simnet.Message{From: msg.From, To: msg.To, Tag: msg.Tag, Size: msg.Size},
	}
	if _, ok := l.nodes[msg.To]; !ok {
		ev.noLink = true
		l.push(ev)
		return
	}
	l.push(ev)
	frame, err := appendFrame(nil, l.codec, ev.seq, msg)
	if err != nil {
		panic(err)
	}
	l.linkTo(msg.From, msg.To).ch <- frame
}

// Send enqueues a message from outside any handler, consuming one counter
// value for its scheduling key exactly as the simulator's external send
// path does.
func (l *Live) Send(from, to simnet.NodeID, tag string, payload any, size int) {
	ks := l.renum
	l.renum++
	l.send(simnet.Message{From: from, To: to, Tag: tag, Payload: payload, Size: size}, ks, 0)
}

// After schedules fn on the given node after delay d (clamped to ≥ 1).
// The timer draws no delay, but it consumes one counter value — the
// simulator keys external timers the same way, and the counters must
// stay in lockstep for delay parity.
func (l *Live) After(node simnet.NodeID, d simnet.Time, fn func(*simnet.Context)) {
	if d < 1 {
		d = 1
	}
	l.renum++
	l.push(&liveEvent{at: l.now + d, timer: true, node: node, fn: fn})
}

// RunUntilIdle drains the event queue: per tick, dispatch each node's
// deliveries to its goroutine, wait for the whole batch, then apply the
// buffered effects in global sequence order — the conservative schedule
// that makes concurrent execution reproduce the simulator exactly. It
// returns the number of events processed, skipped ones included, like the
// simulator's count.
func (l *Live) RunUntilIdle() uint64 {
	var count uint64
	var batch []*slot
	perNode := make(map[simnet.NodeID][]*slot)
	var dispatched []*nodeWork
	for l.heap.Len() > 0 {
		t := l.heap[0].at
		l.now = t
		batch = batch[:0]
		for l.heap.Len() > 0 && l.heap[0].at == t {
			batch = append(batch, &slot{ev: heap.Pop(&l.heap).(*liveEvent)})
		}
		count += uint64(len(batch))
		l.delivered += uint64(len(batch))

		// Renumber the batch: every popped event consumes one counter value
		// in heap order — skipped, down, and noLink events included — just
		// as the simulator renumbers its merged batch at the pop barrier.
		for _, s := range batch {
			s.renum = l.renum
			l.renum++
		}

		for k := range perNode {
			delete(perNode, k)
		}
		for _, s := range batch {
			ev := s.ev
			if l.down[ev.node] {
				if !ev.timer {
					l.metrics.RecordDropped(ev.meta)
					l.dropped++
					if !ev.noLink {
						// The frame was (or will be) delivered to the inbox;
						// claim and discard it so entries never leak.
						if n := l.nodes[ev.node]; n != nil {
							n.inbox.take(ev.seq)
						}
					}
				}
				continue
			}
			if !ev.timer && ev.noLink {
				continue
			}
			n := l.nodes[ev.node]
			if n == nil {
				// A timer on an unregistered node: run it inline; its
				// effects still apply in sequence order below.
				s.ctx = simnet.NewContext(ev.node, t)
				ev.fn(s.ctx)
				continue
			}
			perNode[ev.node] = append(perNode[ev.node], s)
		}

		dispatched = dispatched[:0]
		for id, slots := range perNode {
			w := &nodeWork{at: t, slots: slots, done: make(chan error, 1)}
			l.nodes[id].work <- w
			dispatched = append(dispatched, w)
		}
		for _, w := range dispatched {
			if err := <-w.done; err != nil {
				panic(fmt.Errorf("transport: live delivery failed: %w", err))
			}
		}

		for _, s := range batch {
			if s.ctx == nil {
				continue
			}
			node := s.ev.node
			// Message and timer effects share one index space under the
			// producer's renumber seq, matching the simulator's keying.
			ks, idx := s.renum, uint32(0)
			s.ctx.Effects(func(m simnet.Message) {
				l.send(m, ks, idx)
				idx++
			}, func(d simnet.Time, fn func(*simnet.Context)) {
				if d < 1 {
					d = 1
				}
				l.push(&liveEvent{at: t + d, timer: true, node: node, fn: fn})
				idx++
			})
		}
	}
	return count
}

// Now returns the current virtual time.
func (l *Live) Now() simnet.Time { return l.now }

// Metrics exposes the traffic accounting.
func (l *Live) Metrics() *simnet.Metrics { return l.metrics }

// SetFaults rejects every real fault model: fault injection (message
// fates, crash schedules) belongs to the simulator oracle. nil and
// simnet.NoFaults succeed as the fault-free default.
func (l *Live) SetFaults(f simnet.Faults) error {
	if _, none := f.(simnet.NoFaults); none {
		f = nil
	}
	if f != nil {
		return errors.New("transport: live transport does not support fault injection; run faulty scenarios on the sim transport")
	}
	return nil
}

// SetParallelism is a no-op: the live transport always runs one goroutine
// per node.
func (l *Live) SetParallelism(k int) {}

// SetDown marks a node offline (true) or online (false); deliveries to an
// offline node are dropped with the simulator's accounting and its timers
// do not fire.
func (l *Live) SetDown(id simnet.NodeID, down bool) {
	if down {
		l.down[id] = true
	} else {
		delete(l.down, id)
	}
}

// SetSendAudit installs a hook observing every message at send time.
func (l *Live) SetSendAudit(fn func(simnet.Message)) { l.audit = fn }

// Close tears down pumps, links, and node goroutines. Safe to call twice;
// the transport must not be used afterwards.
func (l *Live) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	for _, lk := range l.links {
		close(lk.ch)
	}
	err := l.mesh.Close()
	for _, n := range l.nodes {
		close(n.work)
		n.inbox.poison(errClosed)
	}
	return err
}

var _ Transport = (*Live)(nil)
