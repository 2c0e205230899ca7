package protocol

import (
	"slices"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// ---------------------------------------------------------------------------
// Semi-commitment exchange (§IV-B, Algorithm 4)

// startSemiCommit is invoked on the (current) leader by the engine: build
// the member list's commitment and announce it to C_R and the partial set.
func (n *Node) startSemiCommit(ctx *simnet.Context) {
	if n.Behavior.Offline || n.localDirectory == nil {
		return
	}
	com := n.localDirectory.SemiCommitment()
	if n.Behavior.ForgeSemiCommit {
		// A forged digest: self-inconsistent with the attached list, the
		// strongest detectable forgery (Theorem 2's first case).
		com = crypto.H([]byte("forged"), com[:])
	}
	msg := SemiComMsg{Round: n.eng.round, Committee: n.comID, SemiCom: com, Records: n.localDirectory.Records()}
	msg.Sig = n.eng.P.Scheme.Sign(n.Keys, msg.SigParts()...)
	size := msg.WireSize()
	for _, rm := range n.eng.roster.Referee {
		ctx.Send(rm, TagSemiCom, msg, size)
	}
	for _, pm := range n.eng.roster.Partials[n.comID] {
		ctx.Send(pm, TagSemiCom, msg, size)
	}
}

// onSemiCom handles a leader's announcement, on both referee members and
// partial-set members.
func (n *Node) onSemiCom(ctx *simnet.Context, m SemiComMsg, from simnet.NodeID) {
	leader := n.eng.roster.Leaders[m.Committee]
	if from != leader && from != n.curLeader {
		return
	}
	if n.eng.P.Scheme.Verify(n.eng.pkOf(from), m.Sig, m.SigParts()...) != nil {
		return
	}
	switch n.role {
	case RoleReferee:
		if _, dup := n.crSemiComs[m.Committee]; dup {
			return
		}
		mm := m
		n.crSemiComs[m.Committee] = &mm
		var members []simnet.NodeID
		for _, rec := range m.Records {
			members = append(members, rec.Node)
		}
		n.crMemberLists[m.Committee] = members
		// The coordinator for this committee drives the C_R validation
		// instance (§IV-B step 2); an invalid commitment triggers an
		// eviction instance instead ("expel the cheating leaders").
		if n.eng.coordinatorFor(m.Committee) != n.ID {
			return
		}
		if m.ListDigest() == m.SemiCom {
			payload := SemiComPayload{Committee: m.Committee, Msg: m}
			if p := n.consFor(n.ID); p != nil {
				p.Propose(ctx, snSemiComBase+m.Committee, payload.Digest(), payload, payload.WireSize())
			}
		} else if !n.eng.P.DisableRecovery {
			n.proposeEviction(ctx, m.Committee, RecoveryWitness{
				Kind: "semicommit", Committee: m.Committee, SemiCom: &mm,
			})
		}
	case RolePartial:
		if m.Committee != n.comID {
			return
		}
		mm := m
		n.semiComLocal = &mm
		// §IV-B step 3: verify the leader's commitment against the list;
		// the list must also cover everything we know locally.
		bad := m.ListDigest() != m.SemiCom
		if !bad && n.localDirectory != nil && len(m.Records) < n.localDirectory.Len() {
			bad = true
		}
		if bad && !n.eng.P.DisableRecovery {
			n.accuse(ctx, RecoveryWitness{Kind: "semicommit", Committee: n.comID, SemiCom: &mm})
		}
	}
}

// ---------------------------------------------------------------------------
// Intra-committee consensus (§IV-C, Algorithm 5)

// startIntra is invoked on the leader by the engine with the round's
// TXList. attempt > 0 marks a re-run after leader recovery.
func (n *Node) startIntra(ctx *simnet.Context, attempt int) {
	if n.Behavior.Offline {
		return
	}
	txs := n.leaderTxs
	if n.Behavior.CensorAll {
		txs = nil
	}
	msg := TxListMsg{Round: n.eng.round, Committee: n.comID, Attempt: attempt, Txs: txs}
	msg.Sig = n.eng.P.Scheme.Sign(n.Keys, u64(msg.Round), u64(msg.Committee), u64(uint64(attempt)))
	size := msg.WireSize()
	if n.treeMode() {
		// O(log C) egress: send only to the tree children; receivers relay
		// (onTxList) down their own subtrees.
		n.treeRelay(ctx, n.ID, TagTxList, msg, size)
	} else {
		for _, id := range n.committeeNodes {
			if id != n.ID {
				ctx.Send(id, TagTxList, msg, size)
			}
		}
	}
	// The leader votes too.
	n.votes = make(map[simnet.NodeID]reputation.VoteVector)
	n.voteOrder = nil
	n.recordVote(n.ID, n.voteOnTxs(txs))
	// Collection deadline: 6Δ (§IV-C step 4). Tree dissemination adds up
	// to ⌈log₂ C⌉ relay hops before the list reaches the deepest member,
	// so the deadline stretches by that many Δ in tree mode; fault-free
	// rounds are unaffected — the leader concludes on the last vote, not
	// the deadline.
	deadline := 6 * n.eng.lat.Delta
	if n.treeMode() {
		deadline += simnet.Time(simnet.TreeDepth(len(n.committeeNodes))) * n.eng.lat.Delta
	}
	ctx.After(deadline, func(c *simnet.Context) {
		n.finishIntra(c, attempt)
	})
}

// onTxList is the member side: vote and reply (§IV-C step 3). The list
// must carry the current leader's signature over (round, committee,
// attempt); a relay may forward it, but only the leader can issue it.
func (n *Node) onTxList(ctx *simnet.Context, m TxListMsg) {
	if m.Committee != n.comID || m.Round != n.eng.round {
		return
	}
	if n.eng.P.Scheme.Verify(n.eng.pkOf(n.curLeader), m.Sig, u64(m.Round), u64(m.Committee), u64(uint64(m.Attempt))) != nil {
		return
	}
	if n.treeMode() && (n.txList == nil || n.txList.Attempt != m.Attempt) {
		// First sight of this list (or of a recovery re-run): forward it
		// down this node's subtree before voting, so the whole committee is
		// reached in ≤ ⌈log₂ C⌉ hops. A crashed relay silences exactly its
		// subtree, whose members then corroborate the intra silence
		// watchdog (txList == nil) — the fault model sees tree faults with
		// no extra machinery.
		n.treeRelay(ctx, n.curLeader, TagTxList, m, m.WireSize())
	}
	mm := m
	n.txList = &mm
	votes := n.voteOnTxs(m.Txs)
	vm := VoteMsg{Round: m.Round, Committee: m.Committee, Attempt: m.Attempt, Voter: n.ID, Votes: votes}
	vm.Sig = n.eng.P.Scheme.Sign(n.Keys, voteSigMsg(m.Round, n.ID, votes))
	ctx.Send(n.curLeader, TagVote, vm, vm.WireSize())
}

// voteOnTxs produces this node's vote vector: the committee's honest
// verdict vector (precomputed once per shard on the routing worker pool,
// see Engine.precomputeVerdicts; recomputed only if a byzantine leader
// substituted a different list) transformed by the behaviour strategy.
// With ParallelBlockGen (§VIII-B) the honest verdicts are computed in list
// order against a copy-on-write overlay, so chained transactions in one
// list can both pass.
func (n *Node) voteOnTxs(txs []*ledger.Tx) reputation.VoteVector {
	honest := n.eng.honestVerdicts(n.comID, txs)
	out := make(reputation.VoteVector, len(txs))
	for i := range txs {
		switch n.Behavior.Vote {
		case VoteHonest:
			out[i] = honest[i]
		case VoteInvert:
			out[i] = -honest[i]
		case VoteLazy:
			out[i] = reputation.Unknown
		case VoteYes:
			out[i] = reputation.Yes
		}
	}
	return out
}

func (n *Node) recordVote(voter simnet.NodeID, v reputation.VoteVector) {
	if _, dup := n.votes[voter]; dup {
		return
	}
	n.votes[voter] = v
	n.voteOrder = append(n.voteOrder, voter)
}

// onVote is the leader side of vote collection (§IV-C steps 3–4). Only a
// committee member's vote, signed by that member, is recorded: since the
// first vote per voter wins, an unchecked Voter field would let any node
// stuff or pre-empt another member's vote.
func (n *Node) onVote(ctx *simnet.Context, m VoteMsg) {
	if n.ID != n.curLeader || m.Committee != n.comID || m.Round != n.eng.round {
		return
	}
	if len(m.Votes) != len(n.currentList()) || !slices.Contains(n.committeeNodes, m.Voter) {
		return
	}
	if n.eng.P.Scheme.Verify(n.eng.pkOf(m.Voter), m.Sig, voteSigMsg(m.Round, m.Voter, m.Votes)) != nil {
		return
	}
	n.recordVote(m.Voter, m.Votes)
	if len(n.votes) == n.committeeSize() {
		n.finishIntra(ctx, m.Attempt)
	}
}

func (n *Node) currentList() []*ledger.Tx {
	if n.Behavior.CensorAll {
		return nil
	}
	return n.leaderTxs
}

// finishIntra computes TXdecSET from the collected votes and runs
// Algorithm 3 on (TXdecSET, VList). Nodes that missed the deadline count
// as all-Unknown (§IV-C step 4).
func (n *Node) finishIntra(ctx *simnet.Context, attempt int) {
	if n.intraDecided != nil || n.ID != n.curLeader {
		return // already done (all votes arrived before the deadline)
	}
	txs := n.currentList()
	c := n.committeeSize()
	var voteList []reputation.VoteVector
	for _, voter := range n.voteOrder {
		voteList = append(voteList, n.votes[voter])
	}
	if len(voteList) == 0 {
		return
	}
	decision, err := reputation.DecisionVector(voteList, c)
	if err != nil {
		return
	}
	var dec []*ledger.Tx
	for i, tx := range txs {
		if decision[i] == reputation.Yes {
			dec = append(dec, tx)
		}
	}
	payload := IntraPayload{Txs: dec, Voters: append([]simnet.NodeID(nil), n.voteOrder...), Votes: voteList}
	n.intraDecided = &payload
	sn := snIntraBase + uint64(attempt)
	p := n.consFor(n.ID)
	if p == nil {
		return
	}
	if n.Behavior.EquivocateIntra {
		// Split the committee and propose two conflicting decisions.
		alt := IntraPayload{Txs: nil, Voters: payload.Voters, Votes: payload.Votes}
		propA := consensus.BuildPropose(n.eng.P.Scheme, n.Keys, n.ID, n.eng.round, sn, payload.Digest(), payload, payload.WireSize())
		propB := consensus.BuildPropose(n.eng.P.Scheme, n.Keys, n.ID, n.eng.round, sn, alt.Digest(), alt, alt.WireSize())
		half := len(n.committeeNodes) / 2
		p.SendRaw(ctx, propA, n.committeeNodes[:half])
		p.SendRaw(ctx, propB, n.committeeNodes[half:])
		return
	}
	p.Propose(ctx, sn, payload.Digest(), payload, payload.WireSize())
}

// ---------------------------------------------------------------------------
// Inter-committee consensus (§IV-D)

// startInter is invoked on the leader by the engine with the cross-shard
// lists destined to each committee. With PreScreenCross (§VIII-A) the
// leader first asks each receiving leader which transactions it considers
// valid and packages only the approved ones; a silent receiver (e.g. a
// concealing byzantine leader) is worked around after a 4Γ timeout by
// packaging the unfiltered list.
func (n *Node) startInter(ctx *simnet.Context) {
	if n.Behavior.Offline {
		return
	}
	// Iterate targets in sorted order: ranging over the map directly would
	// enqueue sends (and thus draw their simulated delays) in a
	// run-dependent order, breaking seeded reproducibility.
	targets := sortedCommitteeIDs(n.interOut)
	if !n.eng.P.PreScreenCross {
		for _, j := range targets {
			n.proposeInterOut(ctx, j, n.interOut[j])
		}
		return
	}
	for _, j := range targets {
		j, txs := j, n.interOut[j]
		query := InterQueryMsg{Round: n.eng.round, From: n.comID, To: j, Txs: txs}
		ctx.Send(n.eng.roster.Leaders[j], TagInterQuery, query, query.WireSize())
		ctx.After(4*n.eng.lat.Gamma, func(c *simnet.Context) {
			if n.interOutStarted[j] {
				return
			}
			n.proposeInterOut(c, j, txs)
		})
	}
}

func (n *Node) proposeInterOut(ctx *simnet.Context, j uint64, txs []*ledger.Tx) {
	if n.interOutStarted == nil {
		n.interOutStarted = make(map[uint64]bool)
	}
	if n.interOutStarted[j] {
		return
	}
	n.interOutStarted[j] = true
	p := n.consFor(n.ID)
	if p == nil {
		return
	}
	payload := InterPayload{From: n.comID, Txs: txs}
	p.Propose(ctx, snInterOutBase+j, payload.Digest(), payload, payload.WireSize())
}

// onInterQuery answers a §VIII-A pre-screen: the receiving leader marks
// each candidate against its view. A concealing leader ignores queries.
func (n *Node) onInterQuery(ctx *simnet.Context, m InterQueryMsg) {
	if n.role != RoleLeader || m.To != n.comID || m.Round != n.eng.round {
		return
	}
	if n.Behavior.ConcealCross || n.Behavior.Offline {
		return
	}
	valid := make([]bool, len(m.Txs))
	for i, tx := range m.Txs {
		_, err := ledger.Validate(tx, n.eng.utxo)
		valid[i] = err == nil
	}
	pref := InterPrefMsg{Round: m.Round, From: m.From, To: m.To, Valid: valid}
	ctx.Send(n.eng.roster.Leaders[m.From], TagInterPref, pref, pref.WireSize())
}

// onInterPref filters the pending list by the receiver's preference and
// starts the committee consensus on the survivors.
func (n *Node) onInterPref(ctx *simnet.Context, m InterPrefMsg) {
	if n.role != RoleLeader || m.From != n.comID || m.Round != n.eng.round {
		return
	}
	txs, ok := n.interOut[m.To]
	if !ok || len(m.Valid) != len(txs) || (n.interOutStarted != nil && n.interOutStarted[m.To]) {
		return
	}
	var kept []*ledger.Tx
	for i, tx := range txs {
		if m.Valid[i] {
			kept = append(kept, tx)
		}
	}
	n.eng.noteScreened(len(txs) - len(kept))
	if len(kept) == 0 {
		if n.interOutStarted == nil {
			n.interOutStarted = make(map[uint64]bool)
		}
		n.interOutStarted[m.To] = true // nothing worth two consensus runs
		return
	}
	n.proposeInterOut(ctx, m.To, kept)
}

// onInterFwd receives a certified cross-shard list on the output
// committee's key members.
func (n *Node) onInterFwd(ctx *simnet.Context, m InterFwdMsg) {
	if m.To != n.comID || m.Round != n.eng.round {
		return
	}
	if n.Behavior.ConcealCross && n.role == RoleLeader {
		return // malicious leader hides the cross-shard work
	}
	// Verify the sending committee's certificate. The member list is
	// checked against the C_R-validated semi-commitment when available —
	// this is exactly what the semi-commitment exists for (§IV-D: "a
	// faulty leader cannot fabricate a consensus result concerning the
	// semi-commitment").
	if com, ok := n.validatedSemiComs[m.From]; ok {
		d := committee.NewDirectory()
		for _, id := range m.Members {
			d.Add(committee.MemberRecord{Node: id, PK: n.eng.pkOf(id)})
		}
		_ = com
		_ = d
		// Note: the canonical directory encoding includes per-record
		// sortition hashes which are not carried in InterFwdMsg; the
		// engine-level check compares node sets. Certificate quorum is
		// the binding check below.
	}
	if err := consensus.VerifyCert(n.eng.P.Scheme, m.Cert, m.Members, n.eng.pkOf); err != nil {
		return
	}
	if _, dup := n.interFwds[m.From]; dup {
		return
	}
	mm := m
	n.interFwds[m.From] = &mm

	switch n.role {
	case RoleLeader:
		payload := InterPayload{From: m.From, Txs: m.Txs}
		if p := n.consFor(n.ID); p != nil {
			p.Propose(ctx, snInterInBase+m.From, payload.Digest(), payload, payload.WireSize())
		}
	case RolePartial:
		// Lemma 7 liveness: if the leader stays silent for 2Γ, forward
		// the set; after another 2Γ, the first partial member assumes
		// proposer duty. Disabled together with recovery for the
		// RapidChain-style baseline.
		if n.eng.P.DisableRecovery {
			return
		}
		src := m.From
		wait := 2 * n.eng.lat.Gamma
		ctx.After(wait, func(c *simnet.Context) {
			if n.leaderProposedInterIn(src) {
				return
			}
			c.Send(n.curLeader, TagInterFwd, mm, mm.WireSize())
			c.After(wait, func(c2 *simnet.Context) {
				if n.leaderProposedInterIn(src) {
					return
				}
				if n.isFirstPartial() {
					payload := InterPayload{From: src, Txs: mm.Txs}
					if p := n.consFor(n.ID); p != nil {
						p.Propose(c2, snInterInBase+src, payload.Digest(), payload, payload.WireSize())
					}
				}
			})
		})
	}
}

func (n *Node) leaderProposedInterIn(src uint64) bool {
	if p, ok := n.cons[n.curLeader]; ok && p.HasProposal(snInterInBase+src) {
		return true
	}
	// Also satisfied if a fallback instance already decided/accepted.
	for _, p := range n.cons {
		if p.HasProposal(snInterInBase + src) {
			return true
		}
	}
	return false
}

func (n *Node) isFirstPartial() bool {
	ps := n.eng.roster.Partials[n.comID]
	if len(ps) == 0 {
		return false
	}
	min := ps[0]
	for _, id := range ps[1:] {
		if id < min {
			min = id
		}
	}
	return n.ID == min
}

// onInterResult records the round trip on leader i and referee members.
func (n *Node) onInterResult(ctx *simnet.Context, m InterResultMsg) {
	if m.Round != n.eng.round {
		return
	}
	switch {
	case n.role == RoleReferee:
		key := interKey(m.From, m.To)
		if _, dup := n.crInter[key]; dup {
			return
		}
		mm := m
		n.crInter[key] = &mm
	case n.role == RoleLeader && m.From == n.comID:
		mm := m
		n.interResults[m.To] = &mm
	}
}

// ---------------------------------------------------------------------------
// Reputation updating (§IV-E)

// startScore is invoked on the leader by the engine after the consensus
// phases: grade every member and run Algorithm 3 on the ScoreList.
func (n *Node) startScore(ctx *simnet.Context) {
	if n.Behavior.Offline || n.Behavior.SuppressScore {
		return
	}
	if n.intraDecided == nil || len(n.voteOrder) == 0 {
		return
	}
	var voteList []reputation.VoteVector
	for _, voter := range n.voteOrder {
		voteList = append(voteList, n.votes[voter])
	}
	decision, err := reputation.DecisionVector(voteList, n.committeeSize())
	if err != nil {
		return
	}
	scores, err := reputation.ScoreAll(voteList, decision)
	if err != nil {
		return
	}
	payload := ScorePayload{Members: append([]simnet.NodeID(nil), n.voteOrder...), Scores: scores}
	if p := n.consFor(n.ID); p != nil {
		p.Propose(ctx, snScore, payload.Digest(), payload, payload.WireSize())
	}
}

// onScoreResult stores a committee's certified score list at C_R.
func (n *Node) onScoreResult(ctx *simnet.Context, m ScoreResultMsg) {
	if n.role != RoleReferee {
		return
	}
	if err := consensus.VerifyCert(n.eng.P.Scheme, m.Result, m.Members, n.eng.pkOf); err != nil {
		return
	}
	if _, dup := n.crScores[m.Committee]; dup {
		return
	}
	mm := m
	n.crScores[m.Committee] = &mm
}

// onIntraResult stores a committee's certified intra decision at C_R.
func (n *Node) onIntraResult(ctx *simnet.Context, m IntraResultMsg) {
	if n.role != RoleReferee {
		return
	}
	if err := consensus.VerifyCert(n.eng.P.Scheme, m.Result, m.Members, n.eng.pkOf); err != nil {
		return
	}
	if _, dup := n.crIntra[m.Committee]; dup {
		return
	}
	mm := m
	n.crIntra[m.Committee] = &mm
}

// ---------------------------------------------------------------------------
// Consensus callbacks (dispatch by sn)

func (n *Node) onConsensusDecide(ctx *simnet.Context, res consensus.Result) {
	switch {
	case res.SN >= snIntraBase && res.SN < snIntraBase+100:
		// Intra decision certified: report to C_R (§IV-C step 5).
		if payload, ok := res.Payload.(IntraPayload); ok {
			n.intraDecided = &payload
		}
		if ar, ok := n.aggCert(res, n.committeeNodes); ok {
			msg := AggIntraResultMsg{Committee: n.comID, Result: ar, Members: n.committeeNodes}
			size := msg.WireSize()
			for _, rm := range n.eng.roster.Referee {
				ctx.Send(rm, TagIntraResult, msg, size)
			}
			return
		}
		msg := IntraResultMsg{Committee: n.comID, Result: res, Members: n.committeeNodes}
		size := msg.WireSize()
		for _, rm := range n.eng.roster.Referee {
			ctx.Send(rm, TagIntraResult, msg, size)
		}
	case res.SN == snScore:
		if ar, ok := n.aggCert(res, n.committeeNodes); ok {
			msg := AggScoreResultMsg{Committee: n.comID, Result: ar, Members: n.committeeNodes}
			size := msg.WireSize()
			for _, rm := range n.eng.roster.Referee {
				ctx.Send(rm, TagScoreResult, msg, size)
			}
			return
		}
		msg := ScoreResultMsg{Committee: n.comID, Result: res, Members: n.committeeNodes}
		size := msg.WireSize()
		for _, rm := range n.eng.roster.Referee {
			ctx.Send(rm, TagScoreResult, msg, size)
		}
	case res.SN >= snInterOutBase && res.SN < snInterOutBase+n.eng.roster.M:
		j := res.SN - snInterOutBase
		payload, ok := res.Payload.(InterPayload)
		if !ok {
			return
		}
		if ar, ok := n.aggCert(res, n.committeeNodes); ok {
			fwd := AggInterFwdMsg{Round: n.eng.round, From: n.comID, To: j, Txs: payload.Txs, Cert: ar, Members: n.committeeNodes}
			size := fwd.WireSize()
			ctx.Send(n.eng.roster.Leaders[j], TagInterFwd, fwd, size)
			for _, pm := range n.eng.roster.Partials[j] {
				ctx.Send(pm, TagInterFwd, fwd, size)
			}
			return
		}
		fwd := InterFwdMsg{Round: n.eng.round, From: n.comID, To: j, Txs: payload.Txs, Cert: res, Members: n.committeeNodes}
		size := fwd.WireSize()
		ctx.Send(n.eng.roster.Leaders[j], TagInterFwd, fwd, size)
		for _, pm := range n.eng.roster.Partials[j] {
			ctx.Send(pm, TagInterFwd, fwd, size)
		}
	case res.SN >= snInterInBase && res.SN < snInterInBase+n.eng.roster.M:
		i := res.SN - snInterInBase
		if payload, ok := res.Payload.(InterPayload); ok {
			n.interDecided[i] = &payload
		}
		if ar, ok := n.aggCert(res, n.committeeNodes); ok {
			msg := AggInterResultMsg{Round: n.eng.round, From: i, To: n.comID, Result: ar}
			size := msg.WireSize()
			ctx.Send(n.eng.roster.Leaders[i], TagInterResult, msg, size)
			for _, rm := range n.eng.roster.Referee {
				ctx.Send(rm, TagInterResult, msg, size)
			}
			return
		}
		msg := InterResultMsg{Round: n.eng.round, From: i, To: n.comID, Result: res}
		size := msg.WireSize()
		ctx.Send(n.eng.roster.Leaders[i], TagInterResult, msg, size)
		for _, rm := range n.eng.roster.Referee {
			ctx.Send(rm, TagInterResult, msg, size)
		}
	case res.SN >= snSemiComBase && res.SN < snSemiComBase+n.eng.roster.M:
		// C_R validated a commitment: announce to all key members
		// (§IV-B step 2).
		k := res.SN - snSemiComBase
		if payload, ok := res.Payload.(SemiComPayload); ok {
			n.validatedSemiComs[k] = payload.Msg.SemiCom
			ok := SemiComOKMsg{Round: n.eng.round, SemiComs: map[uint64]crypto.Digest{k: payload.Msg.SemiCom}}
			for _, id := range n.eng.roster.AllKeyMembers() {
				ctx.Send(id, TagSemiComOK, ok, ok.WireSize())
			}
		}
	case res.SN >= snEvictBase && res.SN < snBlock:
		// Eviction instance (any generation — see proposeEviction): decided
		// on the coordinator; OnAccept (below) handles fan-out on every
		// referee member.
	case res.SN == snBlock:
		// Handled in OnAccept so every referee member shares the
		// propagation burden.
	case res.SN == snUTXO:
		if payload, ok := res.Payload.(UTXOPayload); ok {
			if ar, ok := n.aggCert(res, n.committeeNodes); ok {
				msg := AggUTXOFinalMsg{Round: n.eng.round, Committee: n.comID, Digest: payload.UTXO, Result: ar}
				for _, rm := range n.eng.roster.Referee {
					ctx.Send(rm, TagUTXOFinal, msg, msg.WireSize())
				}
				return
			}
			msg := UTXOFinalMsg{Round: n.eng.round, Committee: n.comID, Digest: payload.UTXO, Result: res}
			for _, rm := range n.eng.roster.Referee {
				ctx.Send(rm, TagUTXOFinal, msg, msg.WireSize())
			}
		}
	}
}

func (n *Node) onConsensusAccept(ctx *simnet.Context, sn uint64, d crypto.Digest, payload any) {
	switch {
	case n.role == RoleReferee && sn >= snEvictBase && sn < snBlock:
		ev, ok := payload.(EvictPayload)
		if !ok {
			return
		}
		evv := ev
		n.crEvicted[ev.Committee] = &evv
		// Every referee member notifies the committee (Algorithm 6).
		msg := NewLeaderMsg{Round: n.eng.round, Committee: ev.Committee, Evicted: ev.Evicted, Successor: ev.Successor, Referee: n.ID}
		for _, id := range n.eng.roster.Committee(ev.Committee) {
			ctx.Send(id, TagNewLeader, msg, msg.WireSize())
		}
	case n.role == RoleReferee && sn == snBlock:
		blk, ok := payload.(*Block)
		if !ok {
			return
		}
		n.crBlock = blk
		n.eng.propagateBlock(ctx, n.ID, blk)
	case sn >= snInterInBase && sn < snInterInBase+n.eng.roster.M:
		if p, ok := payload.(InterPayload); ok {
			pp := p
			n.interDecided[p.From] = &pp
		}
	}
}

// ---------------------------------------------------------------------------
// Block phase

// onBlock receives the round block; committee leaders then drive the final
// UTXO consensus (§IV-G).
func (n *Node) onBlock(ctx *simnet.Context, m BlockMsg) {
	if n.block != nil || m.Block == nil {
		return
	}
	n.block = m.Block
	if n.treeMode() && n.role != RoleLeader && n.role != RoleReferee && n.role != RoleIdle {
		// Tree mode: committee members relay the block down their subtree
		// (referees keep their own propagation path untouched).
		n.treeRelay(ctx, n.curLeader, TagBlock, m, m.WireSize())
	}
	if n.role == RoleLeader && !n.Behavior.Offline {
		// Leaders forward the block inside their committee — tree children
		// only in tree mode, the full roster otherwise.
		if n.treeMode() {
			n.treeRelay(ctx, n.ID, TagBlock, m, m.WireSize())
		} else {
			for _, id := range n.committeeNodes {
				if id != n.ID {
					ctx.Send(id, TagBlock, m, m.WireSize())
				}
			}
		}
		// Agree on the final shard-UTXO digest.
		digest := crypto.H([]byte("utxo"), u64(n.eng.round), u64(n.comID), m.Block.Randomness[:])
		n.utxoDigest = digest
		payload := UTXOPayload{Committee: n.comID, UTXO: digest}
		if p := n.consFor(n.ID); p != nil {
			p.Propose(ctx, snUTXO, payload.Digest(), payload, payload.WireSize())
		}
	}
}

func (n *Node) onUTXOFinal(ctx *simnet.Context, m UTXOFinalMsg) {
	// Recorded for completeness; C_R forwards these to the next round's
	// partial sets, which the engine models directly.
}

// onPow records participation-puzzle solutions at C_R (§IV-F).
func (n *Node) onPow(ctx *simnet.Context, m PowMsg) {
	if n.role != RoleReferee {
		return
	}
	n.crPow[m.Node] = true
}

func interKey(from, to uint64) string {
	return string(rune('A'+from)) + "->" + string(rune('A'+to))
}
