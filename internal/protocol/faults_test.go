package protocol

import (
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"cycledger/internal/simnet"
)

// TestFaultsConfigValidate covers the spec's structural rejections.
func TestFaultsConfigValidate(t *testing.T) {
	bad := []FaultsConfig{
		{Loss: -0.1},
		{Loss: 1.5},
		{LagFrac: 2},
		{LagFrac: 0.5, LagTicks: -1},
		{Partition: &PartitionSpec{Split: 1.2}},
		{Partition: &PartitionSpec{Split: 0.5, HealTick: -3}},
		{Churn: &ChurnSpec{Frac: 0.5}},                             // period missing
		{Churn: &ChurnSpec{Frac: 0.5, Period: 100, Downtime: 100}}, // downtime ≥ period
		{Churn: &ChurnSpec{Frac: -0.5, Period: 100, Downtime: 10}}, // negative frac
		{Partition: &PartitionSpec{Split: 0.5, StartTick: -1}},
		{Partition: &PartitionSpec{Split: 0.5, StartTick: 100, HealTick: 100}}, // heal ≤ start
		{Partition: &PartitionSpec{Split: 0.5, StartTick: 100, HealTick: 40}},  // heal before start
		{OneWay: &OneWayPartitionSpec{Split: 1.2}},
		{OneWay: &OneWayPartitionSpec{Split: 0.5, StartTick: -1}},
		{OneWay: &OneWayPartitionSpec{Split: 0.5, StartTick: 50, HealTick: 40}},
		{Gray: &GraySpec{Frac: -0.1}},
		{Gray: &GraySpec{Frac: 1.5}},
		{Burst: &BurstLossSpec{PEnter: 1.2, PExit: 0.5, Loss: 0.5}},
		{Burst: &BurstLossSpec{PEnter: 0.1, PExit: -0.5, Loss: 0.5}},
		{Burst: &BurstLossSpec{PEnter: 0.1, PExit: 0.5, Loss: 1.5}},
		{Burst: &BurstLossSpec{PEnter: 0.1, PExit: 0, Loss: 0.5}},                                           // permanent outage
		{Churn: &ChurnSpec{Frac: 0.2, Period: 100, Downtime: 10, Windows: []WindowSpec{{From: 0, To: 10}}}}, // both schedules
		{Churn: &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: -1, To: 10}}}},                           // negative start
		{Churn: &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 10, To: 5}}}},                            // ends before start
		{Churn: &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 10, To: 10}}}},                           // empty window
		{Churn: &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 0, To: 0}, {From: 10, To: 20}}}},         // open window not last
		{Churn: &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 0, To: 20}, {From: 10, To: 30}}}},        // overlap
		{Adaptive: &AdaptiveSpec{Budget: -1}},
		{Adaptive: &AdaptiveSpec{Budget: 3}}, // budget with no strategy
	}
	for i, f := range bad {
		f := f
		if err := f.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted %+v", i, f)
		}
		p := DefaultParams()
		p.Faults = &f
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: Params.Validate accepted bad fault config", i)
		}
	}
	good := FaultsConfig{Loss: 0.1, LagFrac: 0.2, LagTicks: 30,
		Partition: &PartitionSpec{Split: 0.5, HealTick: 100},
		Churn:     &ChurnSpec{Frac: 0.2, Period: 300, Downtime: 50}}
	if err := good.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed config: %v", err)
	}
	if !good.Active() {
		t.Fatal("composite config not active")
	}
	good2 := FaultsConfig{
		OneWay:   &OneWayPartitionSpec{Split: 0.3, StartTick: 50, HealTick: 200},
		Gray:     &GraySpec{Frac: 0.1},
		Burst:    &BurstLossSpec{PEnter: 0.02, PExit: 0.2, Loss: 0.9},
		Churn:    &ChurnSpec{Frac: 0.2, Windows: []WindowSpec{{From: 10, To: 40}, {From: 60, To: 0}}},
		Adaptive: &AdaptiveSpec{Budget: 4, CrashLeaders: true, GrayTopK: true, BracketDeadlines: true},
	}
	if err := good2.Validate(); err != nil {
		t.Fatalf("Validate rejected a well-formed extended config: %v", err)
	}
	if !good2.Active() {
		t.Fatal("extended composite config not active")
	}
	var nilCfg *FaultsConfig
	if err := nilCfg.Validate(); err != nil || nilCfg.Active() {
		t.Fatal("nil config must validate and be inactive")
	}
	if (&FaultsConfig{}).Active() {
		t.Fatal("zero config must be inactive")
	}
}

// TestFaultsConfigClone: clones must not share nested pointers.
func TestFaultsConfigClone(t *testing.T) {
	orig := &FaultsConfig{Loss: 0.1, Partition: &PartitionSpec{Split: 0.5},
		Churn:    &ChurnSpec{Frac: 0.1, Windows: []WindowSpec{{From: 5, To: 10}}},
		OneWay:   &OneWayPartitionSpec{Split: 0.3},
		Gray:     &GraySpec{Frac: 0.2},
		Burst:    &BurstLossSpec{PEnter: 0.1, PExit: 0.5, Loss: 0.9},
		Adaptive: &AdaptiveSpec{Budget: 4, CrashLeaders: true}}
	c := orig.Clone()
	c.Partition.Split = 0.9
	c.Churn.Frac = 0.7
	c.Churn.Windows[0].To = 99
	c.OneWay.Split = 0.8
	c.Gray.Frac = 0.9
	c.Burst.Loss = 0.1
	c.Adaptive.Budget = 16
	if orig.Partition.Split != 0.5 || orig.Churn.Frac != 0.1 || orig.Churn.Windows[0].To != 10 ||
		orig.OneWay.Split != 0.3 || orig.Gray.Frac != 0.2 || orig.Burst.Loss != 0.9 || orig.Adaptive.Budget != 4 {
		t.Fatalf("Clone shares nested pointers: %+v", orig)
	}
}

// TestNoFaultsByteIdenticalToFaultFree is the tentpole's core invariant:
// a nil fault config, an inactive zero config, and an inactive partition
// spec all produce reports byte-identical to the pre-fault engine path.
func TestNoFaultsByteIdenticalToFaultFree(t *testing.T) {
	base := DefaultParams()
	base.Rounds = 2
	base.CrossFrac = 0.5
	_, want := runEngine(t, base)

	for name, faults := range map[string]*FaultsConfig{
		"zero-config":         {},
		"inactive-partition":  {Partition: &PartitionSpec{Split: 0, HealTick: 50}},
		"inactive-lag":        {LagFrac: 0.5}, // no LagTicks → inactive
		"explicit-nil-fields": {Loss: 0, Churn: &ChurnSpec{Frac: 0}},
	} {
		t.Run(name, func(t *testing.T) {
			p := base
			p.Faults = faults
			_, got := runEngine(t, p)
			if renderReports(got) != renderReports(want) {
				t.Fatalf("inactive fault config diverged from fault-free engine:\n%s\nvs\n%s",
					renderReports(got), renderReports(want))
			}
		})
	}
}

// TestLossyRoundAccounting: under iid loss the round still commits, the
// report carries the dropped traffic, and delivered-bytes accounting
// excludes the losses (sent ≥ received per phase).
func TestLossyRoundAccounting(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	p.Faults = &FaultsConfig{Loss: 0.05}
	_, reports := runEngine(t, p)
	var dropped uint64
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d committed nothing under 5%% loss", r.Round)
		}
		dropped += r.Dropped
		if r.PhaseDropped == nil {
			t.Fatal("PhaseDropped not populated under an active fault model")
		}
		var phaseDropSum uint64
		for _, c := range r.PhaseDropped {
			phaseDropSum += c.Messages
		}
		if phaseDropSum == 0 {
			t.Fatal("per-phase dropped counters all zero despite losses")
		}
	}
	if dropped == 0 {
		t.Fatal("5% loss dropped nothing across two rounds")
	}
}

// TestLagRoundLateAccounting: beyond-bound messages are counted late and
// still delivered.
func TestLagRoundLateAccounting(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	p.Faults = &FaultsConfig{LagFrac: 0.2, LagTicks: 40}
	_, reports := runEngine(t, p)
	if reports[0].Late == 0 {
		t.Fatal("20% lag marked no message late")
	}
	if reports[0].Throughput() == 0 {
		t.Fatal("lagged round committed nothing")
	}
}

// TestFaultyRunsDeterministicAcrossParallelism extends the determinism
// suite to the fault paths: seeded lossy, partitioned, and churning runs
// must be byte-identical at any simnet parallelism, sequential and
// pipelined.
func TestFaultyRunsDeterministicAcrossParallelism(t *testing.T) {
	models := map[string]*FaultsConfig{
		"lossy":          {Loss: 0.05},
		"partition-heal": {Partition: &PartitionSpec{Split: 0.5, HealTick: 250}},
		"churn":          {Churn: &ChurnSpec{Frac: 0.15, Period: 500, Downtime: 150}},
	}
	for name, faults := range models {
		for _, pipelined := range []bool{false, true} {
			mode := "sequential"
			if pipelined {
				mode = "pipelined"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				var want string
				for i, par := range []int{1, 4} {
					p := DefaultParams()
					p.Rounds = 2
					p.Pipelined = pipelined
					p.Parallelism = par
					p.Faults = faults
					_, reports := runEngine(t, p)
					got := renderReports(reports)
					if i == 0 {
						want = got
					} else if got != want {
						t.Fatalf("faulty run diverged between parallelism 1 and %d:\n%s\nvs\n%s", par, want, got)
					}
				}
			})
		}
	}
}

// phaseCrash is a test fault model that crashes one node from the instant
// a target tick is armed (via Engine hooks at phase start). Down uses an
// atomic so it is safe under parallel event execution; until armed the
// victim is up.
type phaseCrash struct {
	victim simnet.NodeID
	at     atomic.Int64
}

func newPhaseCrash(victim simnet.NodeID) *phaseCrash {
	pc := &phaseCrash{victim: victim}
	pc.at.Store(math.MaxInt64)
	return pc
}

func (p *phaseCrash) Fate(simnet.Time, simnet.NodeID, simnet.NodeID, uint64, uint32) simnet.Fate {
	return simnet.Fate{}
}

func (p *phaseCrash) Down(now simnet.Time, id simnet.NodeID) bool {
	return id == p.victim && int64(now) >= p.at.Load()
}

// crashInPhase runs one round with committee 0's bootstrap leader crashed
// the moment the given phase starts, and returns the round report.
func crashInPhase(t *testing.T, phase string, pipelined, aggregate bool) *RoundReport {
	t.Helper()
	p := DefaultParams()
	p.Rounds = 1
	p.Pipelined = pipelined
	p.AggregateCerts = aggregate
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.Roster().Leaders[0]
	pc := newPhaseCrash(victim)
	e.InstallFaults(pc)
	e.SetHooks(Hooks{PhaseStart: func(round uint64, ph string) {
		if round == 1 && ph == phase {
			pc.at.Store(int64(e.Net.Now()))
		}
	}})
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return reports[0]
}

// TestRecoveryMatrix injects a leader crash at the start of each of the
// seven phases, sequential and pipelined, and asserts that the silence
// watchdogs complete a recovery for the victim's committee within the
// round — recovery is no longer reachable only through provable byzantine
// behaviour — and that the reports are deterministic.
func TestRecoveryMatrix(t *testing.T) {
	phases := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	for _, aggregate := range []bool{false, true} {
		certs := "flat"
		if aggregate {
			certs = "aggregate"
		}
		for _, pipelined := range []bool{false, true} {
			mode := "sequential"
			if pipelined {
				mode = "pipelined"
			}
			for _, phase := range phases {
				phase := phase
				t.Run(certs+"/"+mode+"/"+phase, func(t *testing.T) {
					r := crashInPhase(t, phase, pipelined, aggregate)
					found := false
					for _, rec := range r.Recoveries {
						if rec.Committee == 0 && rec.Kind == "silence" {
							found = true
						}
					}
					if !found {
						t.Fatalf("crash at %s start: no silence recovery for committee 0 (recoveries: %v, timeouts: %v)",
							phase, r.Recoveries, r.Timeouts)
					}
					// Determinism: the same injection replays byte-identically.
					again := crashInPhase(t, phase, pipelined, aggregate)
					a, b := *r, *again
					if !reflect.DeepEqual(&a, &b) {
						t.Fatalf("crash at %s start: reports diverged between identical runs:\n%+v\nvs\n%+v", phase, a, b)
					}
				})
			}
		}
	}
}

// TestSilenceNeedsCorroboration: under an active fault model with a live,
// reachable leader, no silence eviction may fire — a single member cannot
// frame a leader the majority heard from.
func TestSilenceNeedsCorroboration(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	// Active model that drops nothing relevant: tiny lag on a fraction of
	// messages keeps watchdogs armed while every artifact arrives.
	p.Faults = &FaultsConfig{LagFrac: 0.05, LagTicks: 5}
	_, reports := runEngine(t, p)
	for _, r := range reports {
		for _, rec := range r.Recoveries {
			if rec.Kind == "silence" {
				t.Fatalf("round %d evicted a live leader for silence: %+v", r.Round, rec)
			}
		}
	}
}

// TestChurnedLeaderRecovers: a churn schedule that takes down a bootstrap
// leader triggers silence recovery and the run still commits transactions.
func TestChurnedLeaderRecovers(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	victim := e.Roster().Leaders[0]
	e.InstallFaults(simnet.NewChurn(map[simnet.NodeID][]simnet.Window{
		victim: {{From: 1, To: 0}}, // crashes immediately, never rejoins
	}))
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	evicted := false
	for _, rec := range r.Recoveries {
		if rec.Evicted == victim {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("crashed leader %d was never evicted (recoveries: %v)", victim, r.Recoveries)
	}
	if r.Throughput() == 0 {
		t.Fatal("round with a crashed leader committed nothing")
	}
}

// TestTotalSelectBlackoutFallsBack: when no participation proof survives
// (every referee crashed through the selection phase), the engine keeps
// the current configuration instead of electing from an empty pool, and
// the next round still runs.
func TestTotalSelectBlackoutFallsBack(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 2
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	pc := &selectBlackout{eng: e}
	e.InstallFaults(pc)
	e.SetHooks(Hooks{PhaseStart: func(round uint64, ph string) {
		if round == 1 {
			pc.setPhase(ph)
		}
	}})
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Participants != 0 {
		t.Fatalf("blackout round recorded %d participants, want 0", reports[0].Participants)
	}
	if reports[1].Throughput() == 0 {
		t.Fatal("round after a selection blackout committed nothing")
	}
}

// selectBlackout crashes every referee member for the duration of the
// round-1 selection phase.
type selectBlackout struct {
	eng  *Engine
	from atomic.Int64
	to   atomic.Int64
}

func (s *selectBlackout) setPhase(ph string) {
	switch ph {
	case "select":
		s.from.Store(int64(s.eng.Net.Now()) + 1)
		s.to.Store(math.MaxInt64)
	case "block":
		s.to.Store(int64(s.eng.Net.Now()))
	}
}

func (s *selectBlackout) Fate(simnet.Time, simnet.NodeID, simnet.NodeID, uint64, uint32) simnet.Fate {
	return simnet.Fate{}
}

func (s *selectBlackout) Down(now simnet.Time, id simnet.NodeID) bool {
	f, t := s.from.Load(), s.to.Load()
	if f == 0 || int64(now) < f || int64(now) >= t {
		return false
	}
	return s.eng.Roster().RoleOf(id) == RoleReferee
}

// TestChainedRecoveryThroughCrashedSuccessor: when the eviction installs
// a successor that is itself crashed, the next watchdog pass must open a
// fresh motion against the new leader (accusations dedup per accused
// leader, not just per phase), so recovery chains to a live partial
// within maxRecoveryAttempts.
func TestChainedRecoveryThroughCrashedSuccessor(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	leader := e.Roster().Leaders[0]
	successor := e.successorFor(0) // lowest-ID partial: the first replacement
	e.InstallFaults(simnet.NewChurn(map[simnet.NodeID][]simnet.Window{
		leader:    {{From: 1, To: 0}},
		successor: {{From: 1, To: 0}},
	}))
	reports, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	r := reports[0]
	var committee0 []RecoveryEvent
	for _, rec := range r.Recoveries {
		if rec.Committee == 0 {
			committee0 = append(committee0, rec)
		}
	}
	if len(committee0) < 2 {
		t.Fatalf("expected a chained recovery (≥2 evictions) for committee 0, got %v", committee0)
	}
	final := e.Roster().Leaders[0]
	if final == leader || final == successor {
		t.Fatalf("final leader %d is still a crashed node (leader %d, first successor %d)", final, leader, successor)
	}
}

// adaptiveSpec is the full-strategy reactive configuration the frontier
// tests run: crash leaders, gray-fail the reputation top-k, bracket the
// intra deadline with leader→referee cuts.
func adaptiveSpec(budget int) *FaultsConfig {
	return &FaultsConfig{Adaptive: &AdaptiveSpec{
		Budget:           budget,
		CrashLeaders:     true,
		GrayTopK:         true,
		BracketDeadlines: true,
	}}
}

// TestAdaptiveAdversaryDeterminism: the reactive planner's runs are
// byte-identical across simnet parallelism, sequential and pipelined —
// re-planning at round boundaries compiles to the same pure Fate/Down
// plan no matter how the worker pool schedules events.
func TestAdaptiveAdversaryDeterminism(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		mode := "sequential"
		if pipelined {
			mode = "pipelined"
		}
		t.Run(mode, func(t *testing.T) {
			var want string
			for i, par := range []int{1, 4, 0} {
				p := DefaultParams()
				p.Rounds = 2
				p.Pipelined = pipelined
				p.Parallelism = par
				p.Faults = adaptiveSpec(6)
				_, reports := runEngine(t, p)
				got := renderReports(reports)
				if i == 0 {
					want = got
				} else if got != want {
					t.Fatalf("adaptive run diverged between parallelism 1 and %d:\n%s\nvs\n%s", par, want, got)
				}
			}
		})
	}
}

// TestAdaptiveDegradesMoreThanStatic pins the resilience frontier's
// headline property: at equal budget, the reactive adversary (crashing
// the leaders it just watched win) must hurt strictly more than the
// oblivious arm (the same budget spent on seed-random crashes) — lower
// committed throughput and more timeout verdicts.
func TestAdaptiveDegradesMoreThanStatic(t *testing.T) {
	const budget = 8
	run := func(static bool) (tx, timeouts, recoveries int) {
		p := DefaultParams()
		p.Rounds = 3
		p.Faults = adaptiveSpec(budget)
		p.Faults.Adaptive.Static = static
		_, reports := runEngine(t, p)
		for _, r := range reports {
			tx += r.Throughput()
			timeouts += len(r.Timeouts)
			recoveries += len(r.Recoveries)
		}
		return
	}
	aTx, aTo, aRec := run(false)
	sTx, sTo, _ := run(true)
	if aTx >= sTx {
		t.Fatalf("adaptive adversary (tx=%d) did not degrade throughput below equal-budget static (tx=%d)", aTx, sTx)
	}
	if aTo <= sTo {
		t.Fatalf("adaptive adversary (timeouts=%d) did not force more timeouts than static (timeouts=%d)", aTo, sTo)
	}
	if aRec == 0 {
		t.Fatal("adaptive attack triggered no recovery at all — watchdogs asleep?")
	}
}

// TestAdaptiveSmallBudgetAbsorbedByRecovery: the frontier's other regime —
// with budget below the committee count, eviction machinery absorbs the
// targeted crashes (recoveries fire, the run still commits every round).
func TestAdaptiveSmallBudgetAbsorbedByRecovery(t *testing.T) {
	p := DefaultParams()
	p.Rounds = 3
	p.Faults = adaptiveSpec(2)
	_, reports := runEngine(t, p)
	var recoveries int
	for _, r := range reports {
		if r.Throughput() == 0 {
			t.Fatalf("round %d committed nothing under a budget-2 adaptive adversary", r.Round)
		}
		recoveries += len(r.Recoveries)
	}
	if recoveries == 0 {
		t.Fatal("budget-2 leader crashes triggered no recovery")
	}
}

// TestSemiCommitCrashRecoversInPhase: a leader that crashes at the start
// of the semi-commitment exchange is replaced within that phase — the
// C_R coordinator detects the missing announcement directly (common
// members cannot witness semicommit silence, so the committee-quorum
// path alone cannot reach >c/2 for mid-round crashes) — and the re-run
// under the successor leaves no semicommit timeout verdict behind.
func TestSemiCommitCrashRecoversInPhase(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		mode := "sequential"
		if pipelined {
			mode = "pipelined"
		}
		t.Run(mode, func(t *testing.T) {
			r := crashInPhase(t, "semicommit", pipelined, false)
			found := false
			for _, rec := range r.Recoveries {
				if rec.Committee == 0 && rec.Kind == "silence" {
					found = true
				}
			}
			if !found {
				t.Fatalf("no silence recovery for committee 0: %v", r.Recoveries)
			}
			for _, to := range r.Timeouts {
				if to.Phase == "semicommit" {
					t.Fatalf("semicommit timeout verdict despite in-phase recovery: %v", r.Timeouts)
				}
			}
		})
	}
}
