package simnet

import (
	"container/heap"
	"slices"
)

// calQueue is a calendar queue specialised for the simulator's access
// pattern: virtual time only moves forward, almost every event is
// scheduled within the synchrony bounds of the current tick, and a step
// always drains one whole tick at a time.
//
// Near-future events live in a power-of-two ring of per-tick buckets
// covering (base, base+nbucket]; pushing and popping them is a slice
// append and a slice swap, with no comparisons. Events beyond the horizon
// (fault-model lag, long watchdog timers) overflow into a small binary
// heap. Under the lane-sharded scheduler each worker lane owns one
// calQueue and pushes into it concurrently with the other lanes' pushes
// into theirs, so bucket append order is whatever the lane's execution
// produced; popBatch sorts the tick's events by their (ks, kc) scheduling
// key, which restores the one canonical order no matter which lane — or
// how many lanes — produced the pushes.
type calQueue struct {
	base      Time // last popped tick; every live event is strictly later
	mask      Time
	nbucket   Time
	inBuckets int
	buckets   [][]*event
	overflow  eventHeap
	spare     [][]*event // drained bucket arrays kept for reuse (see release)
}

// maxSpareBuckets bounds the drained backing arrays a queue keeps. A tick
// burst sizes one array, and an emptied bucket hands its array to the
// spare list instead of keeping it, so retained capacity is that of the
// live buckets plus at most this many spares — not one peak-sized array
// per ring slot. It exceeds the number of distinct future ticks one lane
// typically has pending, so steady-state pushes still find a spare.
const maxSpareBuckets = 32

// newCalQueue sizes the ring to cover the given near-future horizon
// (rounded up to a power of two, clamped to [256, 8192] ticks).
func newCalQueue(horizon Time) *calQueue {
	nb := Time(256)
	for nb < horizon && nb < 8192 {
		nb <<= 1
	}
	return &calQueue{
		mask:    nb - 1,
		nbucket: nb,
		buckets: make([][]*event, nb),
	}
}

func (q *calQueue) len() int { return q.inBuckets + len(q.overflow) }

// push files an event under its tick. Ticks at or before base cannot
// occur (all schedule paths add ≥ 1 to the current time), but the
// overflow heap handles them correctly if a custom driver ever does.
func (q *calQueue) push(ev *event) {
	if d := ev.at - q.base; d >= 1 && d <= q.nbucket {
		idx := ev.at & q.mask
		b := q.buckets[idx]
		if cap(b) == 0 && len(q.spare) > 0 {
			last := len(q.spare) - 1
			b, q.spare[last] = q.spare[last], nil
			q.spare = q.spare[:last]
		}
		q.buckets[idx] = append(b, ev)
		q.inBuckets++
		return
	}
	heap.Push(&q.overflow, ev)
}

// peek returns the earliest pending tick. The bucket scan is bounded by
// the ring size and touches only slice headers, which in practice is far
// cheaper than maintaining heap order for every message.
func (q *calQueue) peek() (Time, bool) {
	bt := Time(-1)
	if q.inBuckets > 0 {
		for d := Time(1); d <= q.nbucket; d++ {
			if len(q.buckets[(q.base+d)&q.mask]) > 0 {
				bt = q.base + d
				break
			}
		}
	}
	if len(q.overflow) > 0 && (bt < 0 || q.overflow[0].at < bt) {
		return q.overflow[0].at, true
	}
	if bt < 0 {
		return 0, false
	}
	return bt, true
}

// keyLess is the canonical intra-tick order: the (ks, kc) scheduling key,
// a pure function of the event's causal origin (see simnet.go), so every
// lane layout sorts a tick's events identically.
func keyLess(a, b *event) int {
	switch {
	case a.ks < b.ks:
		return -1
	case a.ks > b.ks:
		return 1
	case a.kc < b.kc:
		return -1
	case a.kc > b.kc:
		return 1
	}
	return 0
}

// release clears a drained bucket's event pointers and keeps its backing
// array as a spare while the spare list has room; otherwise the array is
// left to the garbage collector.
func (q *calQueue) release(b []*event) {
	clear(b)
	if cap(b) > 0 && len(q.spare) < maxSpareBuckets {
		q.spare = append(q.spare, b[:0])
	}
}

// popBatch appends every event scheduled at tick t to out, sorted by
// scheduling key, and advances base to t. The emptied bucket's array goes
// to the spare list, from which the next push into an empty bucket takes
// it, so steady-state traffic never reallocates.
func (q *calQueue) popBatch(t Time, out []*event) []*event {
	start := len(out)
	var bucket []*event
	idx := Time(-1)
	if q.inBuckets > 0 && t > q.base && t-q.base <= q.nbucket {
		idx = t & q.mask
		bucket = q.buckets[idx]
		out = append(out, bucket...)
	}
	for len(q.overflow) > 0 && q.overflow[0].at == t {
		out = append(out, heap.Pop(&q.overflow).(*event))
	}
	slices.SortFunc(out[start:], keyLess)
	if idx >= 0 {
		q.inBuckets -= len(bucket)
		q.release(bucket)
		q.buckets[idx] = nil
	}
	if t > q.base {
		q.base = t
	}
	return out
}

// drain appends every queued event to out in arbitrary order and empties
// the queue. Used when SetParallelism redistributes pending events across
// a new lane layout; order is irrelevant because popBatch sorts by key.
func (q *calQueue) drain(out []*event) []*event {
	if q.inBuckets > 0 {
		for i, b := range q.buckets {
			if len(b) > 0 {
				out = append(out, b...)
				q.release(b)
				q.buckets[i] = nil
			}
		}
		q.inBuckets = 0
	}
	out = append(out, q.overflow...)
	for i := range q.overflow {
		q.overflow[i] = nil
	}
	q.overflow = q.overflow[:0]
	return out
}

// reset re-anchors the ring at the given tick. Only valid on an empty
// queue (after drain); every subsequent push must be strictly later.
func (q *calQueue) reset(base Time) {
	q.base = base
}
