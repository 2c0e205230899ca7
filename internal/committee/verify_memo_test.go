package committee

import (
	"math/rand"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// countVerifies wraps the sortition-proof check for the duration of the
// test and returns the per-proof call counts.
func countVerifies(t *testing.T) map[string]int {
	t.Helper()
	calls := make(map[string]int)
	orig := vrfVerify
	vrfVerify = func(pk crypto.PublicKey, alpha []byte, out crypto.VRFOutput) error {
		calls[string(out.Proof)]++
		return orig(pk, alpha, out)
	}
	t.Cleanup(func() { vrfVerify = orig })
	return calls
}

func total(calls map[string]int) int {
	n := 0
	for _, c := range calls {
		n += c
	}
	return n
}

// memoFixture is one committee context: node 0 is the key member, nodes
// 1..n-1 are common members with honest sortition records.
func memoFixture(n int) (recs []MemberRecord, round uint64, r crypto.Digest) {
	rng := rand.New(rand.NewSource(11))
	round, r = 1, crypto.HString("memo-rand")
	for i := 0; i < n; i++ {
		rec, _, _ := record(rng, simnet.NodeID(i), round, r, 1)
		recs = append(recs, rec)
	}
	return recs, round, r
}

// deliver hands one message to cn and returns what it sent.
func deliver(cn *ConfigNode, from simnet.NodeID, tag string, payload any) []simnet.Message {
	ctx := simnet.NewContext(cn.Self.Node, 0)
	cn.Handle(ctx, simnet.Message{From: from, To: cn.Self.Node, Tag: tag, Payload: payload})
	var sent []simnet.Message
	ctx.Effects(func(m simnet.Message) { sent = append(sent, m) }, func(simnet.Time, func(*simnet.Context)) {})
	return sent
}

func TestConfigVerifiesEachRecordOnce(t *testing.T) {
	recs, round, r := memoFixture(6)
	calls := countVerifies(t)

	// A common member (node 3) receives the same list from the key member
	// three times, then MEMBER announcements repeating two of its records
	// and introducing one new member.
	cn := NewConfigNode(round, r, 1, recs[3], false, recs[:1])
	list := MemListMsg{Records: recs[:5]}
	for i := 0; i < 3; i++ {
		deliver(cn, 0, TagMemList, list)
	}
	for _, rec := range []MemberRecord{recs[1], recs[4], recs[5]} {
		deliver(cn, rec.Node, TagMember, JoinRequest{Rec: rec})
	}
	// Verified: nodes 1, 2, 4, 5 once each. The key member is trusted by
	// ID, and the node's own record is already in S.
	for _, i := range []int{1, 2, 4, 5} {
		if got := calls[string(recs[i].Proof)]; got != 1 {
			t.Fatalf("record of node %d verified %d times, want 1", i, got)
		}
	}
	if got := total(calls); got != 4 {
		t.Fatalf("%d verifies in total, want 4", got)
	}
	if cn.S.Len() != 6 {
		t.Fatalf("S holds %d members, want 6", cn.S.Len())
	}

	// A key member verifies a joiner's CONFIG once, and the joiner's
	// repeated CONFIG and later MEMBER hit the memo.
	clear(calls)
	key := NewConfigNode(round, r, 1, recs[0], true, recs[:1])
	deliver(key, 2, TagConfig, JoinRequest{Rec: recs[2]})
	deliver(key, 2, TagConfig, JoinRequest{Rec: recs[2]})
	deliver(key, 2, TagMember, JoinRequest{Rec: recs[2]})
	if got := total(calls); got != 1 {
		t.Fatalf("key member verified the joiner %d times, want 1", got)
	}
}

func TestConfigMemoRejectsAlteredRecords(t *testing.T) {
	recs, round, r := memoFixture(4)
	honest := recs[1]
	flipped := honest
	flipped.Proof = append([]byte(nil), honest.Proof...)
	flipped.Proof[0] ^= 1
	otherHash := honest
	otherHash.Hash = recs[2].Hash
	otherPK := honest
	otherPK.PK = recs[2].PK

	for _, tc := range []struct {
		name string
		rec  MemberRecord
	}{
		{"flipped proof byte", flipped},
		{"different hash", otherHash},
		{"another node's PK", otherPK},
	} {
		for _, tag := range []string{TagMemList, TagMember} {
			calls := countVerifies(t)
			cn := NewConfigNode(round, r, 1, recs[3], false, recs[:1])
			deliver(cn, 0, TagMemList, MemListMsg{Records: []MemberRecord{recs[0], honest}})
			if !cn.S.Holds(honest) {
				t.Fatalf("%s: honest record not accepted", tc.name)
			}
			before := total(calls)
			var sent []simnet.Message
			if tag == TagMemList {
				sent = deliver(cn, 0, TagMemList, MemListMsg{Records: []MemberRecord{tc.rec}})
			} else {
				sent = deliver(cn, tc.rec.Node, TagMember, JoinRequest{Rec: tc.rec})
			}
			if got := total(calls) - before; got != 1 {
				t.Fatalf("%s via %s: %d verifies, want 1 (no memo hit)", tc.name, tag, got)
			}
			if !cn.S.Holds(honest) || cn.S.Holds(tc.rec) {
				t.Fatalf("%s via %s: altered record replaced the honest one", tc.name, tag)
			}
			if len(sent) != 0 {
				t.Fatalf("%s via %s: rejected record triggered %d sends", tc.name, tag, len(sent))
			}
		}
	}
}
