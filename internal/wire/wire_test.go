package wire_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"cycledger/internal/committee"
	"cycledger/internal/consensus"
	"cycledger/internal/crypto"
	"cycledger/internal/ledger"
	"cycledger/internal/pow"
	"cycledger/internal/protocol"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
	"cycledger/internal/wire"
)

func digestOf(s string) crypto.Digest { return crypto.H([]byte(s)) }

func sampleTx(nonce uint64) *ledger.Tx {
	tx := &ledger.Tx{
		Inputs: []ledger.OutPoint{
			{Tx: digestOf("in-a"), Index: 0},
			{Tx: digestOf("in-b"), Index: 3},
		},
		Outputs: []ledger.Output{
			{Owner: "alice", Amount: 40},
			{Owner: "bob", Amount: 2},
		},
		Nonce: nonce,
	}
	tx.ID() // settle the cached ID so DeepEqual sees both sides settled
	return tx
}

func samplePropose(sn uint64) consensus.Propose {
	payload := protocol.IntraPayload{
		Txs:    []*ledger.Tx{sampleTx(sn)},
		Voters: []simnet.NodeID{1, 2, 5},
		Votes: []reputation.VoteVector{
			{reputation.No, reputation.Unknown, reputation.Yes},
		},
	}
	return consensus.Propose{
		Round:   3,
		SN:      sn,
		Digest:  digestOf("propose"),
		Payload: payload,
		Size:    payload.WireSize(),
		Leader:  7,
		Sig:     []byte("sig-propose"),
	}
}

func sampleConfirm() consensus.Confirm {
	return consensus.Confirm{
		Round:     3,
		SN:        9,
		Digest:    digestOf("confirm"),
		Confirmer: 4,
		Sig:       []byte("sig-confirm"),
		EchoSigs: map[simnet.NodeID][]byte{
			2: []byte("echo-2"),
			5: []byte("echo-5"),
			9: []byte("echo-9"),
		},
	}
}

func sampleResult() consensus.Result {
	return consensus.Result{
		Round:    3,
		SN:       9,
		Digest:   digestOf("result"),
		Payload:  protocol.InterPayload{From: 2, Txs: []*ledger.Tx{sampleTx(11)}},
		Confirms: []consensus.Confirm{sampleConfirm()},
	}
}

func sampleAggResult() consensus.AggResult {
	return consensus.AggResult{
		Round:   3,
		SN:      9,
		Digest:  digestOf("agg-result"),
		Payload: protocol.InterPayload{From: 2, Txs: []*ledger.Tx{sampleTx(11)}},
		Bitmap:  consensus.Bitmap{0b0000_0101},
		Proof:   []byte("proof-agg"),
	}
}

func sampleRecord(id simnet.NodeID) committee.MemberRecord {
	return committee.MemberRecord{
		Node:  id,
		PK:    crypto.PublicKey([]byte{byte(id), 1, 2, 3}),
		Hash:  digestOf("record"),
		Proof: []byte("proof"),
	}
}

func sampleSemiCom() protocol.SemiComMsg {
	return protocol.SemiComMsg{
		Round:     3,
		Committee: 1,
		SemiCom:   digestOf("semicom"),
		Records:   []committee.MemberRecord{sampleRecord(3), sampleRecord(8)},
		Sig:       []byte("sig-semicom"),
	}
}

func sampleWitness() consensus.Witness {
	return consensus.Witness{A: samplePropose(9), B: samplePropose(10)}
}

func sampleRecoveryWitness() protocol.RecoveryWitness {
	w := sampleWitness()
	sc := sampleSemiCom()
	return protocol.RecoveryWitness{
		Kind:      "equivocation",
		Committee: 1,
		Phase:     "intra",
		Equiv:     &w,
		SemiCom:   &sc,
	}
}

// fixtures returns one representative value per registered wire type —
// each with every field populated, so round-trips exercise the full
// encoding. The untyped nil covers TagNil.
func fixtures() []any {
	return []any{
		nil,
		sampleTx(1),
		protocol.TxListMsg{Round: 3, Committee: 1, Attempt: 2, Txs: []*ledger.Tx{sampleTx(1), sampleTx(2)}, Sig: []byte("sig")},
		protocol.VoteMsg{Round: 3, Committee: 1, Attempt: 2, Voter: 6,
			Votes: reputation.VoteVector{reputation.Yes, reputation.No}, Sig: []byte("sig")},
		protocol.IntraPayload{Txs: []*ledger.Tx{sampleTx(4)}, Voters: []simnet.NodeID{1, 2},
			Votes: []reputation.VoteVector{{reputation.Yes}, {reputation.Unknown}}},
		protocol.IntraResultMsg{Committee: 1, Result: sampleResult(), Members: []simnet.NodeID{1, 2, 3}},
		sampleSemiCom(),
		protocol.SemiComOKMsg{Round: 3, SemiComs: map[uint64]crypto.Digest{0: digestOf("c0"), 2: digestOf("c2")}},
		protocol.InterFwdMsg{Round: 3, From: 0, To: 2, Txs: []*ledger.Tx{sampleTx(5)},
			Cert: sampleResult(), Members: []simnet.NodeID{4, 5}},
		protocol.InterResultMsg{Round: 3, From: 2, To: 0, Result: sampleResult()},
		protocol.InterQueryMsg{Round: 3, From: 0, To: 2, Txs: []*ledger.Tx{sampleTx(6)}},
		protocol.InterPrefMsg{Round: 3, From: 2, To: 0, Valid: []bool{true, false, true}},
		protocol.InterPayload{From: 2, Txs: []*ledger.Tx{sampleTx(7)}},
		protocol.ScorePayload{Members: []simnet.NodeID{1, 2}, Scores: []float64{0.25, -1.5}},
		protocol.ScoreResultMsg{Committee: 1, Result: sampleResult(), Members: []simnet.NodeID{1, 2}},
		sampleRecoveryWitness(),
		protocol.RecoveryWitness{Kind: "silence", Committee: 2, Phase: "semicommit"},
		protocol.AccuseMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness()},
		protocol.ApproveMsg{Round: 3, Committee: 1, Accuser: 9, Voter: 4, Sig: []byte("sig")},
		protocol.EvictReqMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness(),
			Approvals: []protocol.ApproveMsg{{Round: 3, Committee: 1, Accuser: 9, Voter: 4, Sig: []byte("s")}}},
		protocol.EvictPayload{Committee: 1, Evicted: 7, Successor: 8, Witness: sampleRecoveryWitness()},
		protocol.NewLeaderMsg{Round: 3, Committee: 1, Evicted: 7, Successor: 8, Referee: 0},
		protocol.PowMsg{Round: 3, Node: 12, Solution: pow.Solution{PK: crypto.PublicKey([]byte{9, 9}), Nonce: 77}},
		protocol.SemiComPayload{Committee: 1, Msg: sampleSemiCom()},
		sampleBlock(),
		protocol.BlockMsg{Block: sampleBlock()},
		protocol.BlockMsg{},
		protocol.UTXOFinalMsg{Round: 3, Committee: 1, Digest: digestOf("utxo"), Result: sampleResult()},
		protocol.UTXOPayload{Committee: 1, UTXO: digestOf("utxo")},
		samplePropose(9),
		consensus.Echo{Round: 3, SN: 9, Digest: digestOf("echo"), Echoer: 5, Sig: []byte("sig"), Propose: samplePropose(9)},
		sampleConfirm(),
		sampleWitness(),
		sampleResult(),
		committee.JoinRequest{Rec: sampleRecord(3)},
		committee.MemListMsg{Records: []committee.MemberRecord{sampleRecord(3), sampleRecord(8)}},
		sampleRecord(5),
		pow.Solution{PK: crypto.PublicKey([]byte{1, 2, 3}), Nonce: 42},
		sampleAggResult(),
		protocol.AggIntraResultMsg{Committee: 1, Result: sampleAggResult(), Members: []simnet.NodeID{1, 2, 3}},
		protocol.AggScoreResultMsg{Committee: 1, Result: sampleAggResult(), Members: []simnet.NodeID{1, 2}},
		protocol.AggInterFwdMsg{Round: 3, From: 0, To: 2, Txs: []*ledger.Tx{sampleTx(5)},
			Cert: sampleAggResult(), Members: []simnet.NodeID{4, 5}},
		protocol.AggInterResultMsg{Round: 3, From: 2, To: 0, Result: sampleAggResult()},
		protocol.AggUTXOFinalMsg{Round: 3, Committee: 1, Digest: digestOf("utxo"), Result: sampleAggResult()},
		protocol.AggEvictReqMsg{Round: 3, Committee: 1, Accuser: 9, Witness: sampleRecoveryWitness(),
			Bitmap: consensus.Bitmap{0b0001_1011}, Proof: []byte("proof-evict")},
	}
}

func sampleBlock() *protocol.Block {
	return &protocol.Block{
		Round:        3,
		Txs:          []*ledger.Tx{sampleTx(20), sampleTx(21)},
		Fees:         13,
		Randomness:   digestOf("rand"),
		NextReferee:  []simnet.NodeID{0, 1, 2},
		NextLeaders:  []simnet.NodeID{3, 4},
		NextPartials: [][]simnet.NodeID{{5, 6}, {7}},
		Reputations:  map[string]float64{"node-0001": 0.5, "node-0002": -0.25},
		Rewards:      map[string]uint64{"node-0001": 10, "node-0002": 3},
	}
}

// TestRoundTrip checks, for every registered type, the codec's core
// contract: len(Encode(v)) == SizeHint(v) == v.WireSize(), Decode consumes
// the whole buffer, the decoded value equals the original, and no strict
// prefix of a valid encoding decodes (injective framing).
func TestRoundTrip(t *testing.T) {
	for _, v := range fixtures() {
		v := v
		t.Run(fmt.Sprintf("%T", v), func(t *testing.T) {
			hint, err := wire.SizeHint(v)
			if err != nil {
				t.Fatalf("SizeHint: %v", err)
			}
			enc, err := wire.Encode(v)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(enc) != hint {
				t.Fatalf("encoded length %d != SizeHint %d", len(enc), hint)
			}
			if ws, ok := v.(interface{ WireSize() int }); ok && ws.WireSize() != hint {
				t.Fatalf("WireSize %d != SizeHint %d", ws.WireSize(), hint)
			}
			dec, n, err := wire.Decode(enc)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if n != len(enc) {
				t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
			}
			if !reflect.DeepEqual(dec, v) {
				t.Fatalf("round-trip mismatch:\n got %#v\nwant %#v", dec, v)
			}
			for k := 0; k < len(enc); k++ {
				if _, _, err := wire.Decode(enc[:k]); err == nil {
					t.Fatalf("prefix of length %d decoded without error", k)
				}
			}
		})
	}
}

// TestTagCoverage checks the fixture set exercises every tag the codec
// knows, so a type added to the codec without a fixture fails loudly here.
func TestTagCoverage(t *testing.T) {
	want := map[uint16]bool{}
	for tag := wire.TagNil; tag <= wire.TagAggEvictReq; tag++ {
		want[tag] = false
	}
	for _, v := range fixtures() {
		enc, err := wire.Encode(v)
		if err != nil {
			t.Fatalf("Encode %T: %v", v, err)
		}
		tag := binary.BigEndian.Uint16(enc)
		if _, known := want[tag]; !known {
			t.Fatalf("%T encodes to unregistered tag %d", v, tag)
		}
		want[tag] = true
	}
	for tag, seen := range want {
		if !seen {
			t.Errorf("no fixture covers tag %d", tag)
		}
	}
}

// TestDecodeRejectsOversize checks the MaxMessageSize guard.
func TestDecodeRejectsOversize(t *testing.T) {
	if _, _, err := wire.Decode(make([]byte, wire.MaxMessageSize+1)); err != wire.ErrTooLarge {
		t.Fatalf("oversize buffer: got err %v, want ErrTooLarge", err)
	}
}

// TestDecodeRejectsJunk checks hostile inputs error instead of panicking
// or over-allocating: unknown tags, hostile counts, bad vote bytes, and a
// nested type-tag mismatch.
func TestDecodeRejectsJunk(t *testing.T) {
	cases := map[string][]byte{
		"empty":       {},
		"one byte":    {0},
		"unknown tag": {0xff, 0xff},
		// TagTxList with a 4-billion transaction count.
		"hostile count": {0, byte(wire.TagTxList), 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0xff, 0xff, 0xff, 0xff},
		// TagVote whose vote vector contains byte 3 (valid votes are 0..2).
		"bad vote": {0, byte(wire.TagVote), 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 3},
		// TagBlockMsg with presence byte 1 followed by a Solution, not a Block.
		"wrong nested type": {0, byte(wire.TagBlockMsg), 1, 0, byte(wire.TagSolution), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
	}
	for name, data := range cases {
		if _, _, err := wire.Decode(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestEngineSendSizesMatchCodec is the codec-fidelity parity test for the
// engine configurations no registered scenario covers. Each case runs
// twice: plain, and with wire.RoundTrip as the send hook, so every message
// declares exactly its codec size and every handler receives a decoded
// copy of the encoding instead of the sender's value. The two runs' round
// reports must be deeply equal, Duration included. The engine runs two
// simnet lanes, so the hook is exercised under concurrent calls.
func TestEngineSendSizesMatchCodec(t *testing.T) {
	scenarios := map[string]func(*protocol.Params){
		"default": func(p *protocol.Params) {},
		"byzantine": func(p *protocol.Params) {
			p.MaliciousFrac = 0.2
			p.CorruptLeaders = true
			p.ByzantineBehavior = protocol.Behavior{EquivocateIntra: true, ConcealCross: true}
		},
		"aggregate": func(p *protocol.Params) {
			p.AggregateCerts = true
		},
		"aggregate byzantine": func(p *protocol.Params) {
			p.AggregateCerts = true
			p.MaliciousFrac = 0.2
			p.CorruptLeaders = true
			p.ByzantineBehavior = protocol.Behavior{EquivocateIntra: true, ConcealCross: true}
		},
	}
	for name, tweak := range scenarios {
		t.Run(name, func(t *testing.T) {
			run := func(hook func(simnet.Message) any) []*protocol.RoundReport {
				p := protocol.DefaultParams()
				p.Rounds = 2
				p.Parallelism = 2 // the hook then runs on concurrent lane workers
				tweak(&p)
				e, err := protocol.NewEngine(p)
				if err != nil {
					t.Fatal(err)
				}
				e.Net.SetSendHook(hook)
				reports, err := e.Run()
				if err != nil {
					t.Fatal(err)
				}
				return reports
			}
			var tripped atomic.Int64
			got := run(func(m simnet.Message) any {
				tripped.Add(1)
				v, err := wire.RoundTrip(m)
				if err != nil {
					t.Error(err)
					return m.Payload
				}
				return v
			})
			if tripped.Load() == 0 {
				t.Fatal("send hook never fired")
			}
			if want := run(nil); !reflect.DeepEqual(want, got) {
				t.Errorf("round-tripped run diverges from the plain run\n plain: %+v\n wire:  %+v", want, got)
			}
		})
	}
}

// TestRoundTripRejects checks wire.RoundTrip fails a message whose
// declared size disagrees with its codec size, and one whose payload the
// codec does not know; a modelled PVSS share may declare any size.
func TestRoundTripRejects(t *testing.T) {
	tx := sampleTx(1)
	if _, err := wire.RoundTrip(simnet.Message{Tag: "TX", Payload: tx, Size: tx.WireSize() + 1}); err == nil {
		t.Error("RoundTrip accepted a mis-declared size")
	}
	if _, err := wire.RoundTrip(simnet.Message{Tag: "X", Payload: struct{ X int }{}, Size: 2}); err == nil {
		t.Error("RoundTrip accepted an unregistered payload")
	}
	v, err := wire.RoundTrip(simnet.Message{Tag: protocol.TagPVSSShare, Size: 96})
	if err != nil || v != nil {
		t.Errorf("PVSS share: got (%v, %v), want (nil, nil)", v, err)
	}
	v, err = wire.RoundTrip(simnet.Message{Tag: "TX", Payload: tx, Size: tx.WireSize()})
	if err != nil {
		t.Fatal(err)
	}
	if v.(*ledger.Tx) == tx || !reflect.DeepEqual(v, tx) {
		t.Error("RoundTrip must return an equal, distinct copy")
	}
}

// TestEncodeRejectsUnregistered checks the codec refuses types it does
// not know instead of guessing a size.
func TestEncodeRejectsUnregistered(t *testing.T) {
	type stranger struct{ X int }
	if _, err := wire.SizeHint(stranger{}); err == nil {
		t.Fatal("SizeHint accepted an unregistered type")
	}
	if _, err := wire.Encode(stranger{}); err == nil {
		t.Fatal("Encode accepted an unregistered type")
	}
}

// TestAppendEncodeAppends checks AppendEncode respects an existing prefix.
func TestAppendEncodeAppends(t *testing.T) {
	prefix := []byte("hdr")
	enc, err := wire.AppendEncode(append([]byte(nil), prefix...), sampleTx(1))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(enc, prefix) {
		t.Fatal("AppendEncode clobbered the prefix")
	}
	solo, _ := wire.Encode(sampleTx(1))
	if !bytes.Equal(enc[len(prefix):], solo) {
		t.Fatal("AppendEncode after a prefix differs from Encode")
	}
}
