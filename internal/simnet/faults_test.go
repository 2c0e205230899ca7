package simnet

import (
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
)

// echoNet builds a network where every node in [0, n) records deliveries.
func echoNet(lat Latency, seed int64, n int) (*Network, map[NodeID]int) {
	net := New(lat, seed)
	recv := map[NodeID]int{}
	for id := NodeID(0); id < NodeID(n); id++ {
		id := id
		net.Register(id, func(ctx *Context, msg Message) { recv[id]++ })
	}
	return net, recv
}

func TestNoFaultsByteIdentical(t *testing.T) {
	// A run with NoFaults installed must be event-for-event identical to a
	// run with no fault model at all: same delivery times, same metrics.
	run := func(install bool) ([]Time, Counter) {
		n := New(DefaultLatency(), 1234)
		if install {
			n.SetFaults(NoFaults{})
		}
		var times []Time
		for id := NodeID(0); id < 10; id++ {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				times = append(times, ctx.Now())
				if ctx.Now() < 100 {
					ctx.Send((id+1)%10, "RING", nil, 7)
				}
			})
		}
		n.Send(0, 0, "RING", nil, 7)
		n.RunUntilIdle()
		return times, n.Metrics().Total()
	}
	aT, aC := run(false)
	bT, bC := run(true)
	if len(aT) != len(bT) || aC != bC {
		t.Fatalf("NoFaults diverged: %d/%v events vs %d/%v", len(aT), aC, len(bT), bC)
	}
	for i := range aT {
		if aT[i] != bT[i] {
			t.Fatalf("delivery %d at t=%d with NoFaults, t=%d without", i, bT[i], aT[i])
		}
	}
}

func TestLossDropsAndAccounts(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 5, 2)
	n.SetFaults(NewLoss(1, 99)) // drop everything
	n.Metrics().SetPhase("p")
	for i := 0; i < 20; i++ {
		n.Send(0, 1, "X", nil, 10)
	}
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatalf("lossy link delivered %d messages", recv[1])
	}
	if got := n.Dropped(); got != 20 {
		t.Fatalf("Dropped() = %d, want 20", got)
	}
	// Sender charged, receiver not, dropped counter keyed by destination.
	if c := n.Metrics().Sent("p", 0); c.Messages != 20 || c.Bytes != 200 {
		t.Fatalf("sent = %+v, want 20 msgs / 200 bytes", c)
	}
	if c := n.Metrics().Received("p", 1); c.Messages != 0 {
		t.Fatalf("received = %+v, want zero (drops must not count as delivered)", c)
	}
	if c := n.Metrics().Dropped("p", 1); c.Messages != 20 || c.Bytes != 200 {
		t.Fatalf("dropped = %+v, want 20 msgs / 200 bytes", c)
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 20 {
		t.Fatalf("dropped total = %+v", c)
	}
}

func TestLossPartial(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 6, 2)
	n.SetFaults(NewLoss(0.5, 7))
	const sent = 400
	for i := 0; i < sent; i++ {
		n.Send(0, 1, "X", nil, 1)
	}
	n.RunUntilIdle()
	if recv[1] == 0 || recv[1] == sent {
		t.Fatalf("p=0.5 loss delivered %d of %d", recv[1], sent)
	}
	if uint64(recv[1])+n.Dropped() != sent {
		t.Fatalf("delivered %d + dropped %d ≠ %d", recv[1], n.Dropped(), sent)
	}
}

func TestLagDelaysBeyondBound(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n := New(lat, 8)
	var at Time
	n.Register(1, func(ctx *Context, msg Message) { at = ctx.Now() })
	n.SetFaults(NewLag(1, 25, 3)) // every message held 25 ticks extra
	n.Send(0, 1, "X", nil, 4)
	n.RunUntilIdle()
	if want := lat.Delta + 25; at != want {
		t.Fatalf("lagged delivery at %d, want %d", at, want)
	}
	if c := n.Metrics().LateTotal(); c.Messages != 1 || c.Bytes != 4 {
		t.Fatalf("late total = %+v", c)
	}
}

func TestPartitionHeals(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 9, 4)
	// {0,1} vs {2,3}, healing at t=50.
	n.SetFaults(NewPartition([][]NodeID{{0, 1}, {2, 3}}, 50))

	n.Send(0, 1, "IN", nil, 1)  // same side: delivered
	n.Send(0, 2, "OUT", nil, 1) // across the cut: dropped
	n.RunUntilIdle()
	if recv[1] != 1 || recv[2] != 0 {
		t.Fatalf("pre-heal recv = %v", recv)
	}

	// After the heal tick the cut is gone.
	n.After(0, 60, func(ctx *Context) { ctx.Send(2, "OUT", nil, 1) })
	n.RunUntilIdle()
	if recv[2] != 1 {
		t.Fatalf("post-heal recv = %v", recv)
	}
}

func TestPartitionUnlistedNodesFormImplicitGroup(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 10, 4)
	n.SetFaults(NewPartition([][]NodeID{{0}}, 0)) // never heals; 1..3 unlisted
	n.Send(1, 2, "X", nil, 1)                     // both implicit: delivered
	n.Send(0, 3, "X", nil, 1)                     // across: dropped
	n.RunUntilIdle()
	if recv[2] != 1 || recv[3] != 0 {
		t.Fatalf("recv = %v", recv)
	}
}

func TestChurnCrashAndRejoin(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 11, 2)
	n.SetFaults(NewChurn(map[NodeID][]Window{1: {{From: 5, To: 40}}}))

	// Delivered at t=Δ=10 while node 1 is down → dropped at delivery.
	n.Send(0, 1, "X", nil, 1)
	// Sent from inside the down window → never transmitted.
	n.After(0, 20, func(ctx *Context) {})
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatalf("down node received %d", recv[1])
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1 (the delivery into the window)", n.Dropped())
	}

	// After rejoin the node receives again.
	n.After(0, 50, func(ctx *Context) { ctx.Send(1, "X", nil, 1) })
	n.RunUntilIdle()
	if recv[1] != 1 {
		t.Fatalf("rejoined node received %d", recv[1])
	}
}

func TestChurnCrashedSenderTransmitsNothing(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 12, 2)
	n.Metrics().SetPhase("p")
	n.SetFaults(NewChurn(map[NodeID][]Window{0: {{From: 0, To: 0}}})) // down forever
	n.Send(0, 1, "X", nil, 1)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("message from a crashed sender was delivered")
	}
	if c := n.Metrics().Sent("p", 0); c.Messages != 0 {
		t.Fatalf("crashed sender charged %+v sent traffic", c)
	}
	// Timers owned by a crashed node do not fire.
	fired := false
	n.After(0, 3, func(ctx *Context) { fired = true })
	n.RunUntilIdle()
	if fired {
		t.Fatal("timer fired on a crashed node")
	}
}

func TestCompositeMerges(t *testing.T) {
	n, recv := echoNet(DefaultLatency(), 13, 3)
	n.SetFaults(Composite{
		NewLoss(1, 1), // drops everything
		NewChurn(map[NodeID][]Window{2: {{From: 0, To: 0}}}),
	})
	n.Send(0, 1, "X", nil, 1)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("composite did not apply the loss layer")
	}
	f := Composite{NewChurn(map[NodeID][]Window{2: {{From: 0, To: 0}}})}
	if !f.Down(10, 2) || f.Down(10, 1) {
		t.Fatal("composite Down wrong")
	}
}

// tally wraps one fault layer and counts the verdicts that changed
// something, so a determinism test can check that every layer fired.
type tally struct {
	Faults
	fired *atomic.Int64
}

func (t tally) Fate(now Time, from, to NodeID, ks uint64, kc uint32) Fate {
	f := t.Faults.Fate(now, from, to, ks, kc)
	if f.Drop || f.Delay > 0 {
		t.fired.Add(1)
	}
	return f
}

func (t tally) Down(now Time, node NodeID) bool {
	d := t.Faults.Down(now, node)
	if d {
		t.fired.Add(1)
	}
	return d
}

func TestFaultDeterminismAcrossParallelism(t *testing.T) {
	// Every keyed fault model together must stay byte-deterministic at any
	// worker count and any registration order: fates are pure functions of
	// the message key, evaluated on whichever lane runs the sender.
	const nodes = 30
	type result struct {
		delivered, dropped uint64
		late, total        Counter
	}
	layers := []string{"loss", "lag", "burst", "adaptive", "churn"}
	run := func(par int, shuffleSeed int64) (result, []int64) {
		n := New(DefaultLatency(), 77)
		n.SetParallelism(par)
		adv := NewAdaptive()
		adv.Mute(5, 0, 40)
		adv.Cut(7, []NodeID{8, 9}, 10, 50)
		fired := make([]atomic.Int64, len(layers))
		models := []Faults{
			NewLoss(0.1, 5),
			NewLag(0.1, 15, 6),
			NewBurstLoss(0.1, 0.25, 0.5, 7),
			adv,
			NewChurn(map[NodeID][]Window{3: {{From: 30, To: 90}}, 11: {{From: 10, To: 0}}}),
		}
		var comp Composite
		for i, f := range models {
			comp = append(comp, tally{Faults: f, fired: &fired[i]})
		}
		n.SetFaults(comp)
		order := make([]NodeID, nodes)
		for i := range order {
			order[i] = NodeID(i)
		}
		if shuffleSeed != 0 {
			rand.New(rand.NewSource(shuffleSeed)).Shuffle(nodes, func(i, j int) {
				order[i], order[j] = order[j], order[i]
			})
		}
		for _, id := range order {
			id := id
			n.Register(id, func(ctx *Context, msg Message) {
				if ctx.Now() < 60 {
					ctx.Broadcast([]NodeID{(id + 1) % nodes, (id + 2) % nodes}, "G", nil, 3)
				}
			})
		}
		for id := NodeID(0); id < nodes; id++ {
			n.Send(id, id, "G", nil, 3)
		}
		n.RunUntilIdle()
		counts := make([]int64, len(layers))
		for i := range fired {
			counts[i] = fired[i].Load()
		}
		m := n.Metrics()
		return result{n.Delivered(), n.Dropped(), m.LateTotal(), m.Total()}, counts
	}
	base, fired := run(1, 0)
	for _, alt := range [][2]int64{{2, 0}, {8, 0}, {1, 777}, {8, 555}} {
		got, _ := run(int(alt[0]), alt[1])
		if got != base {
			t.Fatalf("faulty run diverged at par=%d shuffle=%d: %+v vs %+v", alt[0], alt[1], got, base)
		}
	}
	if base.dropped == 0 || base.late.Messages == 0 {
		t.Fatalf("composite model dropped %d and delayed %d messages, want both > 0", base.dropped, base.late.Messages)
	}
	for i, name := range layers {
		if fired[i] == 0 {
			t.Errorf("fault layer %s never fired", name)
		}
	}
}

func TestOneWayPartitionAsymmetry(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 21, 4)
	// 0,1 → 2,3 dropped from t=0 until t=50; the reverse always delivers.
	n.SetFaults(NewOneWayPartition([]NodeID{0, 1}, []NodeID{2, 3}, 0, 50))

	n.Send(0, 2, "A2B", nil, 1) // cut direction: dropped
	n.Send(2, 0, "B2A", nil, 1) // reverse: delivered
	n.Send(0, 1, "IN", nil, 1)  // within the src group: delivered
	n.Send(2, 3, "IN", nil, 1)  // within the dst group: delivered
	n.RunUntilIdle()
	if recv[2] != 0 {
		t.Fatalf("cut direction delivered %d messages", recv[2])
	}
	if recv[0] != 1 || recv[1] != 1 || recv[3] != 1 {
		t.Fatalf("non-cut directions: recv = %v", recv)
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", n.Dropped())
	}

	// After the heal tick the cut direction delivers too.
	n.After(0, 60, func(ctx *Context) { ctx.Send(2, "A2B", nil, 1) })
	n.RunUntilIdle()
	if recv[2] != 1 {
		t.Fatalf("post-heal recv = %v", recv)
	}
}

func TestOneWayPartitionStartTick(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 22, 2)
	n.SetFaults(NewOneWayPartition([]NodeID{0}, []NodeID{1}, 30, 60))
	n.Send(0, 1, "EARLY", nil, 1)                                      // before the cut starts: delivered
	n.After(0, 40, func(ctx *Context) { ctx.Send(1, "MID", nil, 1) })  // inside: dropped
	n.After(0, 70, func(ctx *Context) { ctx.Send(1, "LATE", nil, 1) }) // after heal: delivered
	n.RunUntilIdle()
	if recv[1] != 2 || n.Dropped() != 1 {
		t.Fatalf("recv=%d dropped=%d, want 2 delivered / 1 dropped", recv[1], n.Dropped())
	}
}

func TestGrayFailureReceivesButNeverSends(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 23, 3)
	n.Metrics().SetPhase("p")
	n.SetFaults(NewGrayFailure([]NodeID{1}))

	// Deliveries TO the gray node proceed; its timers fire.
	n.Send(0, 1, "IN", nil, 5)
	fired := false
	n.After(1, 3, func(ctx *Context) { fired = true })
	// Everything FROM the gray node is lost in flight.
	n.Send(1, 2, "OUT", nil, 7)
	n.Send(1, 0, "OUT", nil, 7)
	n.RunUntilIdle()

	if recv[1] != 1 {
		t.Fatalf("gray node received %d, want 1 (gray ≠ crashed)", recv[1])
	}
	if !fired {
		t.Fatal("gray node's timer did not fire")
	}
	if recv[0] != 0 || recv[2] != 0 {
		t.Fatalf("gray node's sends were delivered: recv = %v", recv)
	}
	// Accounting: the gray node's traffic is charged sent + dropped,
	// never received.
	if c := n.Metrics().Sent("p", 1); c.Messages != 2 || c.Bytes != 14 {
		t.Fatalf("gray sent = %+v, want 2 msgs / 14 bytes", c)
	}
	if c := n.Metrics().DroppedByNodes("p", []NodeID{0, 1, 2}); c.Messages != 2 || c.Bytes != 14 {
		t.Fatalf("dropped = %+v, want 2 msgs / 14 bytes", c)
	}
	if c := n.Metrics().Received("p", 0); c.Messages != 0 {
		t.Fatalf("received at 0 = %+v, want zero", c)
	}
	if c := n.Metrics().Received("p", 2); c.Messages != 0 {
		t.Fatalf("received at 2 = %+v, want zero", c)
	}
}

func TestBurstLossCorrelatedAndDeterministic(t *testing.T) {
	// The keyed contract: a fate is a pure function of (now, from, to, ks,
	// kc), so two models with one seed agree on every query, in any order.
	a, b := NewBurstLoss(0.1, 0.25, 0.9, 42), NewBurstLoss(0.1, 0.25, 0.9, 42)
	for i := 0; i < 2000; i++ {
		now, from, to := Time(i/3), NodeID(i%5), NodeID(i%7)
		ks, kc := uint64(i)*31, uint32(i%4)
		if a.Fate(now, from, to, ks, kc) != b.Fate(now, from, to, ks, kc) {
			t.Fatalf("burst fates diverged at query %d for equal seeds", i)
		}
	}
	for i := 1999; i >= 0; i-- {
		now, from, to := Time(i/3), NodeID(i%5), NodeID(i%7)
		ks, kc := uint64(i)*31, uint32(i%4)
		if a.Fate(now, from, to, ks, kc) != a.Fate(now, from, to, ks, kc) {
			t.Fatalf("burst fate at query %d depends on call history", i)
		}
	}

	// Drops on one link cluster in time. One message per tick along 0→1
	// at a ~2.3% long-run rate: iid loss at that rate produces a run of 3
	// consecutive drops in 2000 ticks with probability ~2.5%, while bad
	// windows of ⌈1/pExit⌉ = 5 ticks produce them routinely. The drop
	// that follows a drop is the sharper check: iid keeps it at the base
	// rate, windows push it towards (W-1)/W·lossBad.
	burst := NewBurstLoss(0.005, 0.2, 0.95, 42)
	drops, pairs, run, maxRun := 0, 0, 0, 0
	prev := false
	for tick := 0; tick < 2000; tick++ {
		d := burst.Fate(Time(tick), 0, 1, uint64(tick), 0).Drop
		if d {
			drops++
			run++
			maxRun = max(maxRun, run)
			if prev {
				pairs++
			}
		} else {
			run = 0
		}
		prev = d
	}
	if drops == 0 || drops == 2000 {
		t.Fatalf("burst loss dropped %d of 2000", drops)
	}
	if maxRun < 3 {
		t.Fatalf("longest drop burst = %d, want ≥ 3 (loss is not time-correlated)", maxRun)
	}
	rate, follow := float64(drops)/2000, float64(pairs)/float64(drops)
	t.Logf("one link: %d drops, longest run %d, P(drop | previous drop) %.3f", drops, maxRun, follow)
	if follow < 10*rate {
		t.Fatalf("P(drop | previous drop) = %.3f vs base rate %.3f: loss is not time-correlated", follow, rate)
	}

	// The long-run drop rate is π·lossBad, with π = pEnter/(pEnter+pExit).
	const pEnter, pExit, lossBad = 0.02, 0.2, 0.95
	stat := NewBurstLoss(pEnter, pExit, lossBad, 7)
	total, lost := 0, 0
	for link := 0; link < 64; link++ {
		for tick := 0; tick < 20000; tick++ {
			total++
			if stat.Fate(Time(tick), NodeID(link), NodeID(link+1), uint64(total), 0).Drop {
				lost++
			}
		}
	}
	want := pEnter / (pEnter + pExit) * lossBad
	got := float64(lost) / float64(total)
	t.Logf("long-run drop rate %.4f (π·lossBad = %.4f)", got, want)
	if math.Abs(got-want) > 0.05*want {
		t.Fatalf("long-run drop rate %.4f, want %.4f ± 5%%", got, want)
	}
}

func TestLaggedMessageToCrashedNodeIsDroppedNotLate(t *testing.T) {
	lat := DefaultLatency()
	lat.Deterministic = true
	n, recv := echoNet(lat, 14, 2)
	n.SetFaults(Composite{
		NewLag(1, 30, 3), // every message held 30 ticks extra
		NewChurn(map[NodeID][]Window{1: {{From: 0, To: 0}}}), // dest down forever
	})
	n.Send(0, 1, "X", nil, 4)
	n.RunUntilIdle()
	if recv[1] != 0 {
		t.Fatal("crashed node received a message")
	}
	if c := n.Metrics().LateTotal(); c.Messages != 0 {
		t.Fatalf("undelivered message counted late: %+v", c)
	}
	if c := n.Metrics().DroppedTotal(); c.Messages != 1 {
		t.Fatalf("dropped total = %+v, want 1", c)
	}
}
