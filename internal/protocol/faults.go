package protocol

import (
	"fmt"
	"math/rand"

	"cycledger/internal/simnet"
)

// FaultsConfig is the serialisable description of the network fault model
// a run injects underneath the protocol: iid message loss, beyond-bound
// message lag, a two-group partition with a heal tick, and periodic node
// churn. It is pure data — the sim facade carries it in Config.Faults and
// sweep axes address its fields by dotted JSON path (e.g. "faults.loss") —
// and the engine compiles it into simnet fault implementations at
// construction time.
//
// A nil pointer and an inactive (zero) config are equivalent: the engine
// then behaves byte-identically to the pre-fault implementation, which is
// the invariant the scenario goldens pin down.
type FaultsConfig struct {
	// Loss is the iid probability that any message is dropped in flight.
	Loss float64 `json:"loss"`
	// LagFrac is the fraction of messages held LagTicks beyond their
	// synchrony bound — late, not lost (the adversary scheduling outside
	// the bound).
	LagFrac float64 `json:"lag_frac"`
	// LagTicks is the extra delay applied to lagged messages.
	LagTicks int64 `json:"lag_ticks"`
	// Partition, when non-nil with 0 < Split < 1, cuts the population in
	// two groups that cannot exchange messages until the heal tick.
	Partition *PartitionSpec `json:"partition"`
	// Churn, when non-nil with Frac > 0, crashes a deterministic subset of
	// nodes on a periodic schedule; crashed nodes rejoin after their
	// downtime window.
	Churn *ChurnSpec `json:"churn"`
	// OneWay, when non-nil with 0 < Split < 1, drops messages from the
	// first node group to the second while delivering the reverse
	// direction — the asymmetric-link failure.
	OneWay *OneWayPartitionSpec `json:"one_way"`
	// Gray, when non-nil with Frac > 0, gray-fails a seed-derived subset:
	// those nodes receive but never send, their outbound traffic charged
	// sent + dropped and never received.
	Gray *GraySpec `json:"gray"`
	// Burst, when non-nil and active, injects keyed two-state loss: drops
	// arrive in time-correlated per-link bursts instead of iid.
	Burst *BurstLossSpec `json:"burst"`
	// Adaptive, when non-nil with Budget > 0, arms the reactive adversary:
	// a planner that watches each round's roster and re-targets its fault
	// budget at the nodes that matter (see AdaptiveSpec).
	Adaptive *AdaptiveSpec `json:"adaptive"`
}

// PartitionSpec cuts the population into two groups by node ID: the first
// ⌊Split·n⌋ node IDs against the rest, from StartTick until HealTick.
type PartitionSpec struct {
	// Split is the fraction of the population on the first side of the cut.
	Split float64 `json:"split"`
	// StartTick is the virtual time at which the cut takes effect
	// (0 = from the start of the run).
	StartTick int64 `json:"start_tick"`
	// HealTick is the virtual time at which the partition heals
	// (0 = never). A non-zero HealTick must come after StartTick.
	HealTick int64 `json:"heal_tick"`
}

// OneWayPartitionSpec is the asymmetric cut: messages from the first
// ⌊Split·n⌋ node IDs to the rest are dropped in [StartTick, HealTick);
// the reverse direction keeps delivering.
type OneWayPartitionSpec struct {
	// Split is the fraction of the population on the sending (muted) side.
	Split float64 `json:"split"`
	// StartTick is when the cut takes effect (0 = from the start).
	StartTick int64 `json:"start_tick"`
	// HealTick is when the cut heals (0 = never; otherwise must come
	// after StartTick).
	HealTick int64 `json:"heal_tick"`
}

// GraySpec gray-fails ⌊Frac·n⌋ nodes (a seed-derived uniform subset):
// they receive and their timers fire, but every message they send is lost
// in flight.
type GraySpec struct {
	// Frac is the fraction of the population that gray-fails.
	Frac float64 `json:"frac"`
}

// BurstLossSpec is keyed two-state loss. Each link's timeline is cut into
// windows of ⌈1/PExit⌉ ticks — the bad state's mean sojourn — and each
// window is bad with probability π = PEnter/(PEnter+PExit), the
// stationary bad share of a Gilbert-Elliott chain with these transition
// rates. Inside a bad window each message is dropped with probability
// Loss, by a hash of its scheduling key; good windows lose nothing. The
// long-run loss rate is π·Loss and drops cluster in time on each link.
// Active when PEnter > 0 and Loss > 0 (PExit must then be positive, or
// the "burst" would be a permanent outage).
type BurstLossSpec struct {
	// PEnter is the good→bad transition rate: with PExit it sets the
	// share of bad windows, π = PEnter/(PEnter+PExit).
	PEnter float64 `json:"p_enter"`
	// PExit is the bad→good transition rate: bad windows last ⌈1/PExit⌉
	// ticks.
	PExit float64 `json:"p_exit"`
	// Loss is the drop probability inside a bad window.
	Loss float64 `json:"loss"`
}

// WindowSpec is one explicit downtime window in ticks: down in [From, To).
// To = 0 means the node never rejoins (only valid for the last window).
type WindowSpec struct {
	From int64 `json:"from"`
	To   int64 `json:"to"`
}

// ChurnSpec crashes ⌊Frac·n⌋ nodes (a seed-derived uniform subset) either
// on a staggered periodic schedule — each churner down for Downtime ticks
// out of every Period, with per-node phase offsets so the population
// never drops all at once — or on an explicit, shared list of Windows.
// The two schedules are mutually exclusive.
type ChurnSpec struct {
	// Frac is the fraction of the population subject to churn.
	Frac float64 `json:"frac"`
	// Period is the cycle length in ticks (periodic schedule).
	Period int64 `json:"period"`
	// Downtime is how many ticks of each period a churner spends crashed.
	Downtime int64 `json:"downtime"`
	// Windows, when non-empty, replaces the periodic schedule with
	// explicit downtime windows applied to every churner. Windows must be
	// sorted, non-overlapping, and well-formed (To after From, with To = 0
	// only on the last window).
	Windows []WindowSpec `json:"windows"`
}

// AdaptiveSpec arms the reactive adversary (adversary.go): at every round
// boundary a planner reads the AdversaryView — the new roster, succession
// order, reputation ranking, and the phase deadline schedule — and spends
// Budget units on the highest-value targets. Each unit buys one node
// crashed or gray-failed for the round, or one committee's leader→referee
// link cut around a phase deadline. Allocation order: leaders first
// (CrashLeaders), then the reputation top-k gray-failed (GrayTopK), then
// deadline-bracketing cuts (BracketDeadlines), then succession chains
// (CrashLeaders again, successor by successor). With Static the same
// budget is spent obliviously — seed-random nodes crashed for the round —
// the equal-budget baseline the resilience frontier compares against.
type AdaptiveSpec struct {
	// Budget is how many units the adversary may spend per round (0 = off).
	Budget int `json:"budget"`
	// Static replaces the reactive targeting with seed-random crashes of
	// the same budget — the oblivious control arm. Strategy flags are
	// ignored under Static.
	Static bool `json:"static"`
	// CrashLeaders spends budget crashing the round's leaders the moment
	// they are known, then their successors in succession order.
	CrashLeaders bool `json:"crash_leaders"`
	// GrayTopK spends budget gray-failing the reputation ranking's top
	// nodes — the likely next-round leaders keep receiving but lose their
	// voice.
	GrayTopK bool `json:"gray_top_k"`
	// BracketDeadlines spends budget on one-way leader→referee cuts
	// bracketing the intra-committee result deadline, so a live leader's
	// certified result misses the referee collection window.
	BracketDeadlines bool `json:"bracket_deadlines"`
}

// Validate checks the spec's structural consistency.
func (f *FaultsConfig) Validate() error {
	if f == nil {
		return nil
	}
	if f.Loss < 0 || f.Loss > 1 {
		return fmt.Errorf("protocol: fault loss probability %v out of [0,1]", f.Loss)
	}
	if f.LagFrac < 0 || f.LagFrac > 1 {
		return fmt.Errorf("protocol: fault lag fraction %v out of [0,1]", f.LagFrac)
	}
	if f.LagTicks < 0 {
		return fmt.Errorf("protocol: negative fault lag (%d ticks)", f.LagTicks)
	}
	if p := f.Partition; p != nil {
		if p.Split < 0 || p.Split > 1 {
			return fmt.Errorf("protocol: partition split %v out of [0,1]", p.Split)
		}
		if p.StartTick < 0 {
			return fmt.Errorf("protocol: negative partition start tick (%d)", p.StartTick)
		}
		if p.HealTick < 0 {
			return fmt.Errorf("protocol: negative partition heal tick (%d)", p.HealTick)
		}
		if p.HealTick > 0 && p.HealTick <= p.StartTick {
			return fmt.Errorf("protocol: partition heals at tick %d, at or before its start tick %d", p.HealTick, p.StartTick)
		}
	}
	if p := f.OneWay; p != nil {
		if p.Split < 0 || p.Split > 1 {
			return fmt.Errorf("protocol: one-way partition split %v out of [0,1]", p.Split)
		}
		if p.StartTick < 0 {
			return fmt.Errorf("protocol: negative one-way partition start tick (%d)", p.StartTick)
		}
		if p.HealTick < 0 {
			return fmt.Errorf("protocol: negative one-way partition heal tick (%d)", p.HealTick)
		}
		if p.HealTick > 0 && p.HealTick <= p.StartTick {
			return fmt.Errorf("protocol: one-way partition heals at tick %d, at or before its start tick %d", p.HealTick, p.StartTick)
		}
	}
	if g := f.Gray; g != nil {
		if g.Frac < 0 || g.Frac > 1 {
			return fmt.Errorf("protocol: gray-failure fraction %v out of [0,1]", g.Frac)
		}
	}
	if b := f.Burst; b != nil {
		if b.PEnter < 0 || b.PEnter > 1 {
			return fmt.Errorf("protocol: burst enter probability %v out of [0,1]", b.PEnter)
		}
		if b.PExit < 0 || b.PExit > 1 {
			return fmt.Errorf("protocol: burst exit probability %v out of [0,1]", b.PExit)
		}
		if b.Loss < 0 || b.Loss > 1 {
			return fmt.Errorf("protocol: burst loss probability %v out of [0,1]", b.Loss)
		}
		if b.PEnter > 0 && b.Loss > 0 && b.PExit <= 0 {
			return fmt.Errorf("protocol: burst loss with exit probability 0 is a permanent outage, not a burst")
		}
	}
	if c := f.Churn; c != nil {
		if c.Frac < 0 || c.Frac > 1 {
			return fmt.Errorf("protocol: churn fraction %v out of [0,1]", c.Frac)
		}
		if len(c.Windows) > 0 {
			if c.Period != 0 || c.Downtime != 0 {
				return fmt.Errorf("protocol: churn windows and periodic schedule are mutually exclusive")
			}
			for i, w := range c.Windows {
				if w.From < 0 {
					return fmt.Errorf("protocol: churn window %d starts at negative tick %d", i, w.From)
				}
				if w.To != 0 && w.To <= w.From {
					return fmt.Errorf("protocol: churn window %d ends at tick %d, at or before its start %d", i, w.To, w.From)
				}
				if i > 0 {
					prev := c.Windows[i-1]
					if prev.To == 0 {
						return fmt.Errorf("protocol: churn window %d never ends but is followed by window %d", i-1, i)
					}
					if w.From < prev.To {
						return fmt.Errorf("protocol: churn windows %d and %d overlap ([%d,%d) then [%d,%d))", i-1, i, prev.From, prev.To, w.From, w.To)
					}
				}
			}
		} else if c.Frac > 0 {
			if c.Period < 1 {
				return fmt.Errorf("protocol: churn period %d must be ≥ 1", c.Period)
			}
			if c.Downtime < 1 || c.Downtime >= c.Period {
				return fmt.Errorf("protocol: churn downtime %d must be in [1, period %d)", c.Downtime, c.Period)
			}
		}
	}
	if a := f.Adaptive; a != nil {
		if a.Budget < 0 {
			return fmt.Errorf("protocol: negative adversary budget (%d)", a.Budget)
		}
		if a.Budget > 0 && !a.Static && !a.CrashLeaders && !a.GrayTopK && !a.BracketDeadlines {
			return fmt.Errorf("protocol: adversary budget %d with no strategy selected (crash_leaders, gray_top_k, bracket_deadlines, or static)", a.Budget)
		}
	}
	return nil
}

// Active reports whether the config injects any fault at all. Inactive
// configs leave the engine on its fault-free path (no model installed, no
// watchdogs armed), byte-identical to a nil config.
func (f *FaultsConfig) Active() bool {
	if f == nil {
		return false
	}
	if f.Loss > 0 || (f.LagFrac > 0 && f.LagTicks > 0) {
		return true
	}
	if p := f.Partition; p != nil && p.Split > 0 && p.Split < 1 {
		return true
	}
	if c := f.Churn; c != nil && c.Frac > 0 {
		return true
	}
	if p := f.OneWay; p != nil && p.Split > 0 && p.Split < 1 {
		return true
	}
	if g := f.Gray; g != nil && g.Frac > 0 {
		return true
	}
	if b := f.Burst; b != nil && b.PEnter > 0 && b.Loss > 0 {
		return true
	}
	if a := f.Adaptive; a != nil && a.Budget > 0 {
		return true
	}
	return false
}

// Clone returns a deep copy (nil-safe), so JSON overlays and sweep cells
// never mutate a spec shared with another config value.
func (f *FaultsConfig) Clone() *FaultsConfig {
	if f == nil {
		return nil
	}
	c := *f
	if f.Partition != nil {
		p := *f.Partition
		c.Partition = &p
	}
	if f.Churn != nil {
		ch := *f.Churn
		ch.Windows = append([]WindowSpec(nil), f.Churn.Windows...)
		c.Churn = &ch
	}
	if f.OneWay != nil {
		p := *f.OneWay
		c.OneWay = &p
	}
	if f.Gray != nil {
		g := *f.Gray
		c.Gray = &g
	}
	if f.Burst != nil {
		b := *f.Burst
		c.Burst = &b
	}
	if f.Adaptive != nil {
		a := *f.Adaptive
		c.Adaptive = &a
	}
	return &c
}

// Seed-domain separators so each sub-model consumes an independent RNG
// stream derived from the run seed.
const (
	faultSeedLoss  = 0x6c6f7373 // "loss"
	faultSeedLag   = 0x6c616721 // "lag!"
	faultSeedChurn = 0x63687572 // "chur"
	faultSeedGray  = 0x67726179 // "gray"
	faultSeedBurst = 0x62727374 // "brst"
	faultSeedAdapt = 0x61646170 // "adap"
)

// splitGroups cuts the ID space [0, n) at ⌊split·n⌋: the first group
// against the rest. Both groups must be non-empty for the cut to exist.
func splitGroups(split float64, n int) (a, b []simnet.NodeID, ok bool) {
	cut := int(split * float64(n))
	if cut <= 0 || cut >= n {
		return nil, nil, false
	}
	a = make([]simnet.NodeID, 0, cut)
	b = make([]simnet.NodeID, 0, n-cut)
	for i := 0; i < n; i++ {
		if i < cut {
			a = append(a, simnet.NodeID(i))
		} else {
			b = append(b, simnet.NodeID(i))
		}
	}
	return a, b, true
}

// seedSubset draws ⌊frac·n⌋ distinct node IDs from a domain-separated RNG.
func seedSubset(frac float64, n int, seed int64) []simnet.NodeID {
	count := int(frac * float64(n))
	if count <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)
	out := make([]simnet.NodeID, count)
	for j := 0; j < count; j++ {
		out[j] = simnet.NodeID(perm[j])
	}
	return out
}

// Build compiles the spec into a simnet fault model for a population of n
// nodes under the given run seed. Inactive configs return nil (no model).
// The Adaptive spec is not compiled here: it needs the protocol's roster
// and reputation state, so the engine attaches its planner (adversary.go)
// alongside the layers built from the static specs.
func (f *FaultsConfig) Build(n int, seed int64) simnet.Faults {
	if !f.Active() {
		return nil
	}
	var layers simnet.Composite
	if f.Loss > 0 {
		layers = append(layers, simnet.NewLoss(f.Loss, seed^faultSeedLoss))
	}
	if f.LagFrac > 0 && f.LagTicks > 0 {
		layers = append(layers, simnet.NewLag(f.LagFrac, simnet.Time(f.LagTicks), seed^faultSeedLag))
	}
	if b := f.Burst; b != nil && b.PEnter > 0 && b.Loss > 0 {
		layers = append(layers, simnet.NewBurstLoss(b.PEnter, b.PExit, b.Loss, seed^faultSeedBurst))
	}
	if p := f.Partition; p != nil && p.Split > 0 && p.Split < 1 {
		if a, b, ok := splitGroups(p.Split, n); ok {
			layers = append(layers, simnet.NewPartitionAt([][]simnet.NodeID{a, b},
				simnet.Time(p.StartTick), simnet.Time(p.HealTick)))
		}
	}
	if p := f.OneWay; p != nil && p.Split > 0 && p.Split < 1 {
		if a, b, ok := splitGroups(p.Split, n); ok {
			layers = append(layers, simnet.NewOneWayPartition(a, b,
				simnet.Time(p.StartTick), simnet.Time(p.HealTick)))
		}
	}
	if g := f.Gray; g != nil && g.Frac > 0 {
		if nodes := seedSubset(g.Frac, n, seed^faultSeedGray); len(nodes) > 0 {
			layers = append(layers, simnet.NewGrayFailure(nodes))
		}
	}
	if c := f.Churn; c != nil && c.Frac > 0 {
		if nodes := seedSubset(c.Frac, n, seed^faultSeedChurn); len(nodes) > 0 {
			if len(c.Windows) > 0 {
				ws := make([]simnet.Window, len(c.Windows))
				for i, w := range c.Windows {
					ws[i] = simnet.Window{From: simnet.Time(w.From), To: simnet.Time(w.To)}
				}
				byNode := make(map[simnet.NodeID][]simnet.Window, len(nodes))
				for _, id := range nodes {
					byNode[id] = ws
				}
				layers = append(layers, simnet.NewChurn(byNode))
			} else {
				offsets := make(map[simnet.NodeID]int64, len(nodes))
				for j, id := range nodes {
					// Stagger churners evenly across the period so the crash
					// load is spread, not synchronised.
					offsets[id] = int64(j) * c.Period / int64(len(nodes))
				}
				layers = append(layers, &periodicChurn{offsets: offsets, period: c.Period, downtime: c.Downtime})
			}
		}
	}
	if len(layers) == 0 {
		return nil
	}
	if len(layers) == 1 {
		return layers[0]
	}
	return layers
}

// periodicChurn implements simnet.Faults with a pure-function periodic
// crash schedule: churner j is down whenever (now + offset_j) mod period
// falls inside the downtime window. Down draws no randomness and mutates
// nothing, so it is safe under parallel event execution.
type periodicChurn struct {
	offsets          map[simnet.NodeID]int64
	period, downtime int64
}

// Fate implements simnet.Faults: churn loses no in-flight traffic itself.
func (c *periodicChurn) Fate(simnet.Time, simnet.NodeID, simnet.NodeID, uint64, uint32) simnet.Fate {
	return simnet.Fate{}
}

// Down implements simnet.Faults.
func (c *periodicChurn) Down(now simnet.Time, node simnet.NodeID) bool {
	off, ok := c.offsets[node]
	if !ok {
		return false
	}
	return (int64(now)+off)%c.period < c.downtime
}
