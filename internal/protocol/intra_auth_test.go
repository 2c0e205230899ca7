package protocol

import (
	"testing"

	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// intraFixture builds an engine at round 1 and seats committee 0's nodes
// for the intra phase without running any traffic: every member knows its
// committee and leader, and the leader holds a two-transaction list.
func intraFixture(t *testing.T) (e *Engine, leader *Node, members []simnet.NodeID) {
	t.Helper()
	p := DefaultParams()
	p.Rounds = 1
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	members = e.roster.Committee(0)
	for _, id := range members {
		e.nodes[id].resetRound(e.roster)
	}
	leader = e.nodes[e.roster.Leaders[0]]
	leader.leaderTxs = []*ledger.Tx{{Nonce: 1}, {Nonce: 2}}
	return e, leader, members
}

// signedVote is the vote signer would send, claiming to come from voter.
func signedVote(e *Engine, signer *Node, voter simnet.NodeID, votes reputation.VoteVector) VoteMsg {
	return VoteMsg{Round: e.round, Committee: 0, Voter: voter, Votes: votes,
		Sig: e.P.Scheme.Sign(signer.Keys, voteSigMsg(e.round, voter, votes))}
}

// TestIntraVoteAuthentication feeds the leader's vote handler hostile
// votes (§IV-C steps 3–4): a member claiming another member's voter ID,
// a well-signed vote from outside the committee, and a member's vote with
// one signature byte flipped. None may be recorded, and the spoofed vote
// must not pre-empt the genuine one that follows it.
func TestIntraVoteAuthentication(t *testing.T) {
	e, leader, members := intraFixture(t)
	a, b := e.nodes[members[1]], e.nodes[members[2]]
	outsider := e.nodes[e.roster.Committee(1)[0]]
	yes := reputation.VoteVector{reputation.Yes, reputation.Yes}
	no := reputation.VoteVector{reputation.No, reputation.No}
	ctx := simnet.NewContext(leader.ID, 0)

	leader.onVote(ctx, signedVote(e, a, b.ID, yes)) // a speaks for b
	leader.onVote(ctx, signedVote(e, outsider, outsider.ID, yes))
	flipped := signedVote(e, a, a.ID, yes)
	flipped.Sig[0] ^= 1
	leader.onVote(ctx, flipped)
	if len(leader.votes) != 0 {
		t.Fatalf("leader recorded hostile votes: %v", leader.votes)
	}

	leader.onVote(ctx, signedVote(e, b, b.ID, no))
	leader.onVote(ctx, signedVote(e, a, a.ID, no))
	for _, id := range []simnet.NodeID{a.ID, b.ID} {
		if got := leader.votes[id]; len(got) != 2 || got[0] != reputation.No {
			t.Errorf("member %d: recorded %v, want its own signed vote %v", id, got, no)
		}
	}
}

// TestIntraTxListAuthentication feeds a member a TX_LIST signed by a
// fellow member instead of the leader: the member must neither adopt the
// list nor vote on it, while the leader's own list is accepted.
func TestIntraTxListAuthentication(t *testing.T) {
	e, leader, members := intraFixture(t)
	forger, target := e.nodes[members[1]], e.nodes[members[2]]
	list := func(signer *Node) TxListMsg {
		m := TxListMsg{Round: e.round, Committee: 0}
		m.Sig = e.P.Scheme.Sign(signer.Keys, u64(m.Round), u64(m.Committee), u64(uint64(m.Attempt)))
		return m
	}
	sent := func(ctx *simnet.Context) (n int) {
		ctx.Effects(func(simnet.Message) { n++ }, func(simnet.Time, func(*simnet.Context)) {})
		return n
	}

	ctx := simnet.NewContext(target.ID, 0)
	target.onTxList(ctx, list(forger))
	if target.txList != nil || sent(ctx) != 0 {
		t.Fatal("member adopted and voted on a TX_LIST not signed by its leader")
	}
	ctx = simnet.NewContext(target.ID, 0)
	target.onTxList(ctx, list(leader))
	if target.txList == nil || sent(ctx) != 1 {
		t.Fatal("member rejected its leader's TX_LIST")
	}
}
