// Package protocol wires every CycLedger phase (§III-E, §IV) into a
// running multi-committee simulation on top of the simnet substrate:
//
//	committee configuration → semi-commitment exchange → intra-committee
//	consensus → inter-committee consensus → reputation updating → referee/
//	leader/partial-set selection → block generation and propagation,
//
// with the leader re-selection (recovery) procedure of §V-D available in
// every phase. Nodes are state machines driven by simulated messages;
// byzantine nodes deviate according to explicit Behavior flags.
package protocol

import (
	"fmt"

	"cycledger/internal/consensus"
	"cycledger/internal/transport"
)

// Params configures a protocol simulation.
type Params struct {
	M       int // number of ordinary committees (m)
	C       int // expected committee size including leader and partial set (c)
	Lambda  int // partial set size (λ)
	RefSize int // referee committee size |C_R|

	Rounds         int     // rounds to simulate
	TxPerCommittee int     // transactions offered to each committee per round
	CrossFrac      float64 // fraction of cross-shard payments in the workload
	InvalidFrac    float64 // fraction of invalid transactions injected

	// MaliciousFrac of all nodes follow ByzantineBehavior instead of the
	// honest protocol. Drawn uniformly unless CorruptLeaders forces the
	// adversary to spend its corruption budget on leader seats first
	// (the paper's worst case for liveness).
	MaliciousFrac     float64
	ByzantineBehavior Behavior
	CorruptLeaders    bool

	Scheme      consensus.SignatureScheme
	Seed        int64
	Parallelism int    // simnet and CPU-stage worker pools; 0 = GOMAXPROCS
	PowHardness uint64 // expected hash attempts per participation puzzle

	// DisableRecovery turns off the leader re-selection procedure —
	// the RapidChain-style baseline for the leader-fault experiment.
	DisableRecovery bool

	// PreScreenCross enables the §VIII-A extension: before packaging a
	// cross-shard list, the sending leader queries the receiving leader
	// for a validity preference and drops the transactions it flags,
	// saving the two full Algorithm 3 runs on lists that would mostly die
	// at the referee committee (e.g. under a DoS workload).
	PreScreenCross bool

	// Pipelined executes each round as a concurrent stage graph instead of
	// a strict phase sequence: the PoW election work, block assembly,
	// ledger apply, and next-round workload routing overlap the network
	// phases they have no data dependency on — the paper's §IV observation
	// that committee election and transaction processing can proceed in
	// parallel. Round reports are bit-identical to the sequential
	// engine's at any parallelism level, except Duration, which becomes
	// the critical path of the overlapped stage schedule instead of the
	// sum of the phases. Fanning a CPU stage out over Parallelism (the
	// PoW search, the honest verdicts) happens in both schedules; this
	// toggle only adds the overlap between stages.
	Pipelined bool

	// ParallelBlockGen enables the §VIII-B extension: committee members
	// evaluate transaction lists in order against a copy-on-write overlay
	// of the UTXO set, so a transaction spending an earlier transaction's
	// output in the same round can be accepted. In the original protocol
	// "at least one of them will be regarded as illegal".
	ParallelBlockGen bool

	// Faults injects a network fault model underneath the protocol:
	// message loss, beyond-bound lag, a healing partition, and periodic
	// node churn (see FaultsConfig). An active model additionally arms the
	// protocol's silence watchdogs, so leaders that fall silent are
	// impeached (§V-D extended beyond provable misbehaviour) and phases
	// that cannot conclude record timeout verdicts in the RoundReport.
	// nil — and any inactive config — keeps the engine byte-identical to
	// the fault-free implementation.
	Faults *FaultsConfig

	// AggregateCerts switches every cross-committee certificate — intra/
	// score/inter results, the UTXO finality vote, and eviction approval
	// sets — from the per-voter Confirm list to one constant-size aggregate
	// proof plus a voter bitmap (consensus.AggResult), and routes committee
	// broadcasts (transaction lists, block propagation) over a binomial
	// dissemination tree so leader egress is O(log C) sends instead of
	// O(C). Requires a Scheme that implements consensus.AggregateScheme.
	// Decisions, rewards, and recoveries are unchanged — only traffic
	// shape; the equivalence is pinned by tests.
	AggregateCerts bool

	// Transport builds the network the engine runs over; nil selects the
	// deterministic simulator (transport.SimFactory). A custom factory —
	// typically one wrapping SimFactory to instrument the network — must
	// build it from the latency model and seed the engine passes in, or
	// the run's delay schedule changes.
	Transport transport.Factory
}

// DefaultParams returns a small but fully-featured configuration: 4
// committees of 16 (λ = 3) plus a 9-member referee committee.
func DefaultParams() Params {
	return Params{
		M:              4,
		C:              16,
		Lambda:         3,
		RefSize:        9,
		Rounds:         3,
		TxPerCommittee: 30,
		CrossFrac:      1.0 / 3,
		Scheme:         consensus.HashScheme{},
		Seed:           1,
		Parallelism:    1,
		PowHardness:    8,
	}
}

// PaperScaleParams approximates the paper's headline setting: 2000 nodes,
// 20 committees, λ = 40. Heavy — used by opt-in benches only.
func PaperScaleParams() Params {
	p := DefaultParams()
	p.M = 20
	p.C = 97
	p.Lambda = 40
	p.RefSize = 60
	p.TxPerCommittee = 100
	return p
}

// Validate checks structural consistency.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("protocol: need at least 1 committee")
	}
	if p.Lambda < 1 {
		return fmt.Errorf("protocol: partial set size must be ≥ 1")
	}
	if p.C < p.Lambda+2 {
		return fmt.Errorf("protocol: committee size %d too small for λ=%d (+leader+members)", p.C, p.Lambda)
	}
	if p.RefSize < 3 {
		return fmt.Errorf("protocol: referee committee size %d < 3", p.RefSize)
	}
	if p.Rounds < 1 {
		return fmt.Errorf("protocol: rounds must be ≥ 1")
	}
	if p.TxPerCommittee < 0 {
		return fmt.Errorf("protocol: negative transactions per committee (%d)", p.TxPerCommittee)
	}
	if p.CrossFrac < 0 || p.CrossFrac > 1 {
		return fmt.Errorf("protocol: cross-shard fraction %v out of [0,1]", p.CrossFrac)
	}
	if p.InvalidFrac < 0 || p.InvalidFrac > 1 {
		return fmt.Errorf("protocol: invalid-transaction fraction %v out of [0,1]", p.InvalidFrac)
	}
	if p.MaliciousFrac < 0 || p.MaliciousFrac >= 1 {
		return fmt.Errorf("protocol: malicious fraction %v out of [0,1)", p.MaliciousFrac)
	}
	if p.MaliciousFrac > 0 && !p.ByzantineBehavior.IsByzantine() {
		// Corrupted nodes with the zero Behavior act honestly, so the run
		// would silently be indistinguishable from MaliciousFrac = 0.
		return fmt.Errorf("protocol: malicious fraction %v with an honest behavior (set ByzantineBehavior)", p.MaliciousFrac)
	}
	if p.Parallelism < 0 {
		return fmt.Errorf("protocol: negative parallelism (%d)", p.Parallelism)
	}
	if p.Seed == 0 {
		// A zero seed is almost always a forgotten field, and it would
		// silently collide with every other zero-seeded run; require an
		// explicit choice (DefaultParams uses 1).
		return fmt.Errorf("protocol: seed must be non-zero (set an explicit simulation seed)")
	}
	if p.Scheme == nil {
		return fmt.Errorf("protocol: nil signature scheme")
	}
	if p.AggregateCerts {
		if _, ok := p.Scheme.(consensus.AggregateScheme); !ok {
			return fmt.Errorf("protocol: AggregateCerts requires a scheme implementing consensus.AggregateScheme (got %T)", p.Scheme)
		}
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	return nil
}

// TotalNodes returns the node count n = m·c + |C_R|.
func (p Params) TotalNodes() int { return p.M*p.C + p.RefSize }
