package protocol

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync/atomic"

	"cycledger/internal/chain"
	"cycledger/internal/committee"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/pvss"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/transport"
	"cycledger/internal/workload"
)

// RecoveryEvent records one completed leader re-selection.
type RecoveryEvent struct {
	Round     uint64
	Committee uint64
	Evicted   simnet.NodeID
	Successor simnet.NodeID
	Kind      string
}

// Hooks are optional callbacks fired as a round progresses, the engine's
// half of the streaming observation API (the sim facade adapts them to its
// Observer interface). Callbacks run synchronously on whichever goroutine
// executes the stage: under Params.Pipelined the network phases run on
// their own goroutines, serialised by the stage graph's dependency edges,
// so invocations never overlap but do hop goroutines — implementations
// must not assume a single caller goroutine.
type Hooks struct {
	// PhaseStart fires when a network phase (config, semicommit, intra,
	// inter, score, select, block) begins driving traffic.
	PhaseStart func(round uint64, phase string)
	// Recovery fires for each decided leader eviction as it is folded
	// into the roster, before the round's report is finalised.
	Recovery func(RecoveryEvent)
}

// SetHooks installs progress callbacks. Call it before Run/RunRound; the
// engine reads the struct without synchronisation once rounds start.
func (e *Engine) SetHooks(h Hooks) { e.hooks = h }

// PhaseTimeout records a committee that could not conclude a phase with a
// quorum within its synchrony bound: the expected certified artifact never
// reached the referee committee, so the phase concluded with a timeout
// verdict for that committee and the round carried on without its
// contribution.
type PhaseTimeout struct {
	Phase     string
	Committee uint64
}

// RoundReport summarises one protocol round.
type RoundReport struct {
	Round         uint64
	IntraIncluded int
	CrossIncluded int
	Rejected      int
	Fees          uint64
	Recoveries    []RecoveryEvent
	Participants  int
	// Duration is the round's simulated latency. Sequential engines pay
	// the sum of all phase spans; with Params.Pipelined it is the critical
	// path of the overlapped stage schedule (see pipelinedDuration).
	Duration       simnet.Time
	Messages       uint64
	Bytes          uint64
	PhaseTraffic   map[string]simnet.Counter            // phase → totals
	RoleTraffic    map[string]map[string]simnet.Counter // phase → role → totals
	Rewards        map[string]uint64
	BlockDelivered int // nodes that received the block
	Screened       int // cross-shard txs dropped by §VIII-A pre-screening

	// Fault-model observability. Dropped/Late/PhaseDropped are zero/nil
	// without an active fault model; Timeouts is computed on every run —
	// a byzantine-quiet committee (e.g. an offline leader with recovery
	// disabled) records timeout verdicts even on a fault-free network.
	Dropped      uint64                    // messages lost in flight or to crashed nodes
	DroppedBytes uint64                    // bytes of the dropped messages
	Late         uint64                    // messages delivered beyond their synchrony bound
	Timeouts     []PhaseTimeout            // phases concluded by timeout, in phase order
	PhaseDropped map[string]simnet.Counter // phase → lost traffic (populated under a fault model)
}

// Throughput returns included transactions per round.
func (r *RoundReport) Throughput() int { return r.IntraIncluded + r.CrossIncluded }

// Engine runs the full protocol over a transport — the deterministic
// simulator by default, or whatever a Params.Transport factory wraps
// around it.
type Engine struct {
	P   Params
	Net transport.Transport

	rng   *rand.Rand
	keys  []crypto.KeyPair
	names []string
	nodes []*Node

	reput  *reputation.Ledger
	utxo   ledger.Store
	gen    *workload.Generator
	group  *pvss.Group
	chain  *chain.Chain
	lat    simnet.Latency
	roster *Roster
	round  uint64

	randomness crypto.Digest
	nextRoster *Roster
	reports    []*RoundReport

	// Per-round pipeline state (see pipeline.go for the stage graph).
	work        *routedWork            // routed work lists + precomputed honest verdicts
	nextBatch   []*ledger.Tx           // prefetched by the pipeline's prefetch stage
	powSols     []powEntry             // participation-puzzle solutions, one per node
	pending     *pendingBlock          // assembled-but-uncertified block state
	stageSpans  map[string]simnet.Time // per-network-stage virtual spans
	prevCertify simnet.Time            // previous round's certify span (cross-round overlap)
	screened    atomic.Int64           // §VIII-A pre-screen drops (handler hot path)
	hooks       Hooks                  // optional progress callbacks (SetHooks)

	// Fault-model state (see faults.go). faults is the installed simnet
	// model (nil when fault-free); faultsActive additionally arms the
	// silence watchdogs and the per-phase dropped-traffic accounting.
	// adversary, when non-nil, is the reactive planner re-targeting its
	// budget at each round boundary (see adversary.go).
	faults       simnet.Faults
	faultsActive bool
	adversary    *adversaryPlanner
}

// InstallFaults installs an arbitrary simnet fault model and activates the
// protocol's timeout/watchdog machinery. Config-driven runs go through
// Params.Faults; this entry point exists for tests and advanced callers
// that need a custom model (e.g. crash injection keyed to phase starts).
// Call before the first round; nil uninstalls.
func (e *Engine) InstallFaults(f simnet.Faults) {
	if _, none := f.(simnet.NoFaults); none {
		f = nil
	}
	e.Net.SetFaults(f)
	e.faults = f
	e.faultsActive = f != nil
}

// Close releases the transport's resources (a no-op for the simulator).
// The engine must not run further rounds afterwards.
func (e *Engine) Close() error { return e.Net.Close() }

// nodeDown reports whether a node is unreachable right now: explicitly
// byzantine-offline, or crashed per the fault model's schedule.
func (e *Engine) nodeDown(id simnet.NodeID) bool {
	i := nodeIndex(id, len(e.nodes))
	if i < 0 {
		return true
	}
	if e.nodes[i].Behavior.Offline {
		return true
	}
	return e.faults != nil && e.faults.Down(e.Net.Now(), id)
}

// noteScreened tallies §VIII-A pre-screen drops. It is called from
// handlers that may run on the simnet worker pool, so it must stay
// lock-free: a single atomic add, folded into the round report when the
// round closes.
func (e *Engine) noteScreened(n int) {
	if n > 0 {
		e.screened.Add(int64(n))
	}
}

// NewEngine builds the node population, genesis state, and the round-1
// roster (in a real deployment round 1's key members come from a bootstrap
// block; here the engine plays that block's role).
func NewEngine(p Params) (*Engine, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
		P:     p,
		rng:   rand.New(rand.NewSource(p.Seed)),
		reput: reputation.NewLedger(),
		utxo:  ledger.NewShardedStore(uint64(p.M)),
		group: pvss.DefaultGroup(),
		chain: chain.New(),
	}
	e.lat = simnet.DefaultLatency()
	e.lat.Classify = func(from, to simnet.NodeID) simnet.LinkClass {
		if e.roster == nil {
			return simnet.LinkIntra
		}
		return e.roster.linkClass(from, to)
	}
	build := p.Transport
	if build == nil {
		build = transport.SimFactory
	}
	net, err := build(e.lat, p.Seed)
	if err != nil {
		return nil, err
	}
	e.Net = net
	if p.Parallelism != 1 {
		e.Net.SetParallelism(p.Parallelism)
	}
	if p.Faults.Active() {
		model := p.Faults.Build(p.TotalNodes(), p.Seed)
		if a := p.Faults.Adaptive; a != nil && a.Budget > 0 {
			// The adaptive spec compiles to an initially-empty plan plus a
			// planner fed at round boundaries; static layers stack under it.
			am := simnet.NewAdaptive()
			e.adversary = newAdversaryPlanner(*a, am, p.TotalNodes(), e.lat.Gamma, p.Seed)
			switch prev := model.(type) {
			case nil:
				model = am
			case simnet.Composite:
				model = append(prev, am)
			default:
				model = simnet.Composite{prev, am}
			}
		}
		e.InstallFaults(model)
	}

	n := p.TotalNodes()
	e.keys = make([]crypto.KeyPair, n)
	e.names = make([]string, n)
	e.nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		e.keys[i] = crypto.GenerateKeyPair(e.rng)
		e.names[i] = fmt.Sprintf("node-%04d", i)
		node := &Node{ID: simnet.NodeID(i), Name: e.names[i], Keys: e.keys[i], eng: e}
		e.nodes[i] = node
		e.Net.Register(node.ID, node.Handle)
	}
	e.assignByzantine()

	// Workload and genesis.
	gen, err := workload.New(workload.Config{
		Users:          2 * n,
		Shards:         uint64(p.M),
		InitialBalance: 1_000,
		CrossShardFrac: p.CrossFrac,
		InvalidFrac:    p.InvalidFrac,
		Seed:           p.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	e.gen = gen
	for _, tx := range gen.Genesis() {
		id := tx.ID()
		for i, o := range tx.Outputs {
			if err := e.utxo.Add(ledger.OutPoint{Tx: id, Index: uint32(i)}, o); err != nil {
				return nil, err
			}
		}
	}

	e.randomness = crypto.H([]byte("cycledger/genesis"), u64(uint64(p.Seed)))
	e.roster = e.bootstrapRoster()
	e.roster.warm()
	e.round = 1
	return e, nil
}

// assignByzantine marks MaliciousFrac of nodes byzantine. With
// CorruptLeaders the budget is spent on the bootstrap leader seats first
// (the adversary is mildly adaptive and leader seats are public one round
// ahead, §III-C).
func (e *Engine) assignByzantine() {
	total := len(e.nodes)
	budget := int(e.P.MaliciousFrac * float64(total))
	if budget == 0 {
		return
	}
	var order []int
	if e.P.CorruptLeaders {
		// Bootstrap leaders occupy indices [RefSize, RefSize+M).
		for i := e.P.RefSize; i < e.P.RefSize+e.P.M && len(order) < budget; i++ {
			order = append(order, i)
		}
	}
	perm := e.rng.Perm(total)
	for _, i := range perm {
		if len(order) >= budget {
			break
		}
		dup := false
		for _, j := range order {
			if i == j {
				dup = true
				break
			}
		}
		if !dup {
			order = append(order, i)
		}
	}
	for _, i := range order {
		e.nodes[i].Behavior = e.P.ByzantineBehavior
	}
}

// bootstrapRoster builds round 1's roster: referee first, then leaders,
// then partial sets round-robin; everyone else joins as a common member
// via sortition (resolved in the configuration phase).
func (e *Engine) bootstrapRoster() *Roster {
	r := newRoster(1, e.randomness, uint64(e.P.M))
	var ref []simnet.NodeID
	for i := 0; i < e.P.RefSize; i++ {
		ref = append(ref, simnet.NodeID(i))
	}
	r.setReferee(ref)
	idx := e.P.RefSize
	for k := 0; k < e.P.M; k++ {
		r.setLeader(uint64(k), simnet.NodeID(idx))
		idx++
	}
	for j := 0; j < e.P.Lambda; j++ {
		for k := 0; k < e.P.M; k++ {
			r.addPartial(uint64(k), simnet.NodeID(idx))
			idx++
		}
	}
	e.assignCommons(r, idx)
	return r
}

// assignCommons places the remaining population via Algorithm 1 sortition.
func (e *Engine) assignCommons(r *Roster, from int) {
	for i := from; i < len(e.nodes); i++ {
		res := committee.Sortition(e.keys[i], r.Round, r.Randomness, r.M)
		r.addCommon(res.CommitteeID, simnet.NodeID(i))
	}
}

// nodeIndex bounds-checks a (possibly wire-supplied) NodeID against a
// population of n nodes: it returns the slice index for a valid ID and -1
// for anything negative or past the end. Every engine lookup keyed by a
// NodeID goes through this one guard.
func nodeIndex(id simnet.NodeID, n int) int {
	if id < 0 || int(id) >= n {
		return -1
	}
	return int(id)
}

// pkOf resolves a node's public key (the PKI of §III-A).
func (e *Engine) pkOf(id simnet.NodeID) crypto.PublicKey {
	i := nodeIndex(id, len(e.keys))
	if i < 0 {
		return nil
	}
	return e.keys[i].PK
}

// NameOf returns a node's stable identity string, or "" for an ID outside
// the population.
func (e *Engine) NameOf(id simnet.NodeID) string {
	i := nodeIndex(id, len(e.names))
	if i < 0 {
		return ""
	}
	return e.names[i]
}

// IsByzantine reports whether the node was assigned a byzantine behaviour.
func (e *Engine) IsByzantine(id simnet.NodeID) bool {
	i := nodeIndex(id, len(e.nodes))
	if i < 0 {
		return false
	}
	return e.nodes[i].Behavior.IsByzantine()
}

// Reputation exposes the ledger (read-only use in examples and tests).
func (e *Engine) Reputation() *reputation.Ledger { return e.reput }

// UTXO exposes the ledger state: a ShardedStore with m lock stripes, so
// committees working disjoint outpoint sets contend on ~1/m of the locks
// instead of one global mutex. Stripes are keyed by outpoint hash
// (StripeOf), not by owner shard — O(1) location without an owner index.
func (e *Engine) UTXO() ledger.Store { return e.utxo }

// Roster exposes the current round's roster.
func (e *Engine) Roster() *Roster { return e.roster }

// Reports returns the per-round reports collected so far.
func (e *Engine) Reports() []*RoundReport { return e.reports }

// Chain returns the verified block store accumulated across rounds.
func (e *Engine) Chain() *chain.Chain { return e.chain }

// GenesisUTXO rebuilds the genesis UTXO snapshot, for external chain
// re-verification.
func (e *Engine) GenesisUTXO() (*ledger.UTXOSet, error) {
	s := ledger.NewUTXOSet()
	for _, tx := range e.gen.Genesis() {
		id := tx.ID()
		for i, o := range tx.Outputs {
			if err := s.Add(ledger.OutPoint{Tx: id, Index: uint32(i)}, o); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// coordinatorFor maps a committee to its referee-committee coordinator for
// C_R-internal Algorithm 3 instances.
func (e *Engine) coordinatorFor(k uint64) simnet.NodeID {
	return e.roster.Referee[int(k)%len(e.roster.Referee)]
}

// successorFor picks the replacement leader: the lowest-ID partial member.
func (e *Engine) successorFor(k uint64) simnet.NodeID {
	ps := e.roster.Partials[k]
	if len(ps) == 0 {
		return -1
	}
	min := ps[0]
	for _, id := range ps[1:] {
		if id < min {
			min = id
		}
	}
	return min
}

// propagateBlock spreads the decided block: each referee member serves the
// slice of leaders assigned to it round-robin; leaders forward within
// their committees (onBlock). This splits the paper's O(mn) referee burden
// across C_R.
func (e *Engine) propagateBlock(ctx *simnet.Context, refID simnet.NodeID, blk *Block) {
	idx := -1
	for i, id := range e.roster.Referee {
		if id == refID {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	msg := BlockMsg{Block: blk}
	size := msg.WireSize()
	for k := idx; k < e.P.M; k += len(e.roster.Referee) {
		ctx.Send(e.roster.Leaders[k], TagBlock, msg, size)
	}
	// Referee members also serve each other.
	for i, id := range e.roster.Referee {
		if i != idx && (i%len(e.roster.Referee)) == idx {
			ctx.Send(id, TagBlock, msg, size)
		}
	}
}

// phaseLabel namespaces metrics per round: "r%03d/<phase>" built with
// strconv appends (this runs per phase per round and feeds map keys, so it
// should not drag fmt's reflection into the hot diagnostic path).
func (e *Engine) phaseLabel(phase string) string {
	return roundPhaseLabel(e.round, phase)
}

func roundPhaseLabel(round uint64, phase string) string {
	buf := make([]byte, 1, 22+len(phase)) // 'r' + up to 20 digits + '/'
	buf[0] = 'r'
	if round < 100 { // zero-pad to three digits, like %03d
		buf = append(buf, '0')
		if round < 10 {
			buf = append(buf, '0')
		}
	}
	buf = strconv.AppendUint(buf, round, 10)
	buf = append(buf, '/')
	buf = append(buf, phase...)
	return string(buf)
}

func (e *Engine) setPhase(phase string) {
	e.Net.Metrics().SetPhase(e.phaseLabel(phase))
	if e.hooks.PhaseStart != nil {
		e.hooks.PhaseStart(e.round, phase)
	}
}

// Run executes the configured number of rounds.
func (e *Engine) Run() ([]*RoundReport, error) {
	for i := 0; i < e.P.Rounds; i++ {
		if _, err := e.RunRound(); err != nil {
			return e.reports, err
		}
	}
	return e.reports, nil
}

// RunRound executes one full protocol round and returns its report.
//
// The round is expressed as an explicit stage graph (see roundStages in
// pipeline.go): network stages form the serial chain config → semicommit →
// intra → inter → score → select → certify, while CPU-bound stages
// (workload routing, PoW election work, block assembly, ledger apply,
// next-round prefetch) hang off that chain by data dependency only. With
// P.Pipelined the graph is executed concurrently, overlapping the paper's
// §IV election/processing pipeline; otherwise it runs in topological order,
// which reproduces the seed engine's sequential behaviour exactly.
func (e *Engine) RunRound() (*RoundReport, error) {
	report := &RoundReport{
		Round:        e.round,
		PhaseTraffic: make(map[string]simnet.Counter),
		RoleTraffic:  make(map[string]map[string]simnet.Counter),
		Rewards:      make(map[string]uint64),
	}
	// The reactive adversary re-plans first: the roster is fixed, no
	// traffic has moved, the network is idle — the snapshot point where
	// appending fault windows cannot race in-flight evaluation. It reads
	// the previous round's stage spans before roundStages resets them.
	if e.adversary != nil {
		e.adversary.replan(e.AdversaryView())
	}
	start := e.Net.Now()
	dropStart := e.Net.Metrics().DroppedTotal()
	lateStart := e.Net.Metrics().LateTotal()

	if err := runStages(e.roundStages(report), e.P.Pipelined); err != nil {
		return nil, err
	}

	if e.P.Pipelined {
		report.Duration = e.pipelinedDuration()
	} else {
		report.Duration = e.Net.Now() - start
	}
	report.Screened = int(e.screened.Swap(0))
	dropEnd := e.Net.Metrics().DroppedTotal()
	lateEnd := e.Net.Metrics().LateTotal()
	report.Dropped = dropEnd.Messages - dropStart.Messages
	report.DroppedBytes = dropEnd.Bytes - dropStart.Bytes
	report.Late = lateEnd.Messages - lateStart.Messages
	e.collectTraffic(report)
	e.reports = append(e.reports, report)

	// Advance to the next round.
	e.roster = e.nextRoster
	e.roster.warm()
	e.nextRoster = nil
	e.round++
	return report, nil
}

// collectTraffic aggregates the per-phase, per-role counters for Table II,
// then forgets the previous round's counters: retention is bounded to the
// last completed round, which stays readable under its "r%03d/" labels.
// Every stage of round r, pipelined or not, runs inside RunRound(r), so
// no traffic is ever recorded under round r−1's labels after this point.
func (e *Engine) collectTraffic(report *RoundReport) {
	phases := []string{"config", "semicommit", "intra", "inter", "score", "select", "block"}
	roleSets := map[string][]simnet.NodeID{
		"common":  e.roster.CommonsOfAll(),
		"key":     e.roster.AllKeyMembers(),
		"referee": e.roster.Referee,
	}
	m := e.Net.Metrics()
	var allIDs []simnet.NodeID
	if e.faultsActive {
		report.PhaseDropped = make(map[string]simnet.Counter, len(phases))
		allIDs = make([]simnet.NodeID, len(e.nodes))
		for i := range e.nodes {
			allIDs[i] = simnet.NodeID(i)
		}
	}
	for _, ph := range phases {
		label := e.phaseLabel(ph)
		var total simnet.Counter
		byRole := make(map[string]simnet.Counter, len(roleSets))
		for role, ids := range roleSets {
			c := m.SentByNodes(label, ids)
			byRole[role] = c
			total.Add(c)
		}
		report.PhaseTraffic[ph] = total
		report.RoleTraffic[ph] = byRole
		report.Messages += total.Messages
		report.Bytes += total.Bytes
		if e.faultsActive {
			// Lost traffic per phase, keyed by the destination that never
			// saw it — the resilience table's raw material. Never part of
			// the sent/received Table II counters.
			report.PhaseDropped[ph] = m.DroppedByNodes(label, allIDs)
		}
	}
	m.Forget(roundPhaseLabel(e.round-1, ""))
}

// sortedCommitteeIDs is a small helper for deterministic iteration.
func sortedCommitteeIDs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// powPuzzle returns the participation puzzle for the next round.
func (e *Engine) powPuzzle() pow.Puzzle {
	hardness := e.P.PowHardness
	if hardness == 0 {
		hardness = 8
	}
	return pow.NewPuzzle(e.round+1, e.randomness, hardness)
}
