package protocol

import (
	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
	"cycledger/internal/simnet"
)

// Exact wire sizes for every protocol message, mirroring the
// internal/wire codec byte for byte (conventions in
// internal/consensus/wiresize.go: [u16 tag][body] framing, u32 length
// prefixes, 4-byte NodeIDs, 1-byte presence flags for pointers, maps with
// sorted keys). The codec's audit test asserts that each WireSize equals
// the encoded length, and wire.RoundTrip, run as the simnet send hook,
// asserts that declared Send sizes match — which is what keeps Table
// II's delivered-bytes faithful to a real serialisation.

func sliceBytesWire(b []byte) int { return 4 + len(b) }

func txsWire(txs []*ledger.Tx) int {
	n := 4
	for _, tx := range txs {
		n += tx.WireSize()
	}
	return n
}

func nodesWire(ids []simnet.NodeID) int { return 4 + 4*len(ids) }

func votesWire(v reputation.VoteVector) int { return 4 + len(v) }

// WireSize returns the exact encoded size.
func (m TxListMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + txsWire(m.Txs) + sliceBytesWire(m.Sig)
}

// WireSize returns the exact encoded size.
func (m VoteMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + 4 + votesWire(m.Votes) + sliceBytesWire(m.Sig)
}

// WireSize returns the exact encoded size.
func (p IntraPayload) WireSize() int {
	n := 2 + txsWire(p.Txs) + nodesWire(p.Voters) + 4
	for _, v := range p.Votes {
		n += votesWire(v)
	}
	return n
}

// WireSize returns the exact encoded size.
func (m IntraResultMsg) WireSize() int {
	return 2 + 8 + m.Result.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (m SemiComMsg) WireSize() int {
	n := 2 + 8 + 8 + 32 + 4
	for _, rec := range m.Records {
		n += rec.WireSize()
	}
	return n + sliceBytesWire(m.Sig)
}

// WireSize returns the exact encoded size.
func (m SemiComOKMsg) WireSize() int {
	return 2 + 8 + 4 + len(m.SemiComs)*(8+32)
}

// WireSize returns the exact encoded size.
func (m InterFwdMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + txsWire(m.Txs) + m.Cert.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (m InterResultMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + m.Result.WireSize()
}

// WireSize returns the exact encoded size.
func (m InterQueryMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + txsWire(m.Txs)
}

// WireSize returns the exact encoded size.
func (m InterPrefMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + 4 + len(m.Valid)
}

// WireSize returns the exact encoded size.
func (p InterPayload) WireSize() int {
	return 2 + 8 + txsWire(p.Txs)
}

// WireSize returns the exact encoded size.
func (p ScorePayload) WireSize() int {
	return 2 + nodesWire(p.Members) + 4 + 8*len(p.Scores)
}

// WireSize returns the exact encoded size.
func (m ScoreResultMsg) WireSize() int {
	return 2 + 8 + m.Result.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (w RecoveryWitness) WireSize() int {
	n := 2 + (4 + len(w.Kind)) + 8 + (4 + len(w.Phase)) + 1 + 1
	if w.Equiv != nil {
		n += w.Equiv.WireSize()
	}
	if w.SemiCom != nil {
		n += w.SemiCom.WireSize()
	}
	return n
}

// WireSize returns the exact encoded size.
func (m AccuseMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + m.Witness.WireSize()
}

// WireSize returns the exact encoded size.
func (m ApproveMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + 4 + sliceBytesWire(m.Sig)
}

// WireSize returns the exact encoded size.
func (m EvictReqMsg) WireSize() int {
	n := 2 + 8 + 8 + 4 + m.Witness.WireSize() + 4
	for _, ap := range m.Approvals {
		n += ap.WireSize()
	}
	return n
}

// WireSize returns the exact encoded size.
func (p EvictPayload) WireSize() int {
	return 2 + 8 + 4 + 4 + p.Witness.WireSize()
}

// WireSize returns the exact encoded size.
func (m NewLeaderMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + 4 + 4
}

// WireSize returns the exact encoded size.
func (m PowMsg) WireSize() int {
	return 2 + 8 + 4 + m.Solution.WireSize()
}

// WireSize returns the exact encoded size.
func (p SemiComPayload) WireSize() int {
	return 2 + 8 + p.Msg.WireSize()
}

// WireSize returns the exact encoded size.
func (m BlockMsg) WireSize() int {
	n := 2 + 1
	if m.Block != nil {
		n += m.Block.WireSize()
	}
	return n
}

// WireSize returns the exact encoded size.
func (m UTXOFinalMsg) WireSize() int {
	return 2 + 8 + 8 + 32 + m.Result.WireSize()
}

// WireSize returns the exact encoded size.
func (p UTXOPayload) WireSize() int {
	return 2 + 8 + 32
}

// WireSize returns the exact encoded size.
func (m AggIntraResultMsg) WireSize() int {
	return 2 + 8 + m.Result.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (m AggScoreResultMsg) WireSize() int {
	return 2 + 8 + m.Result.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (m AggInterFwdMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + txsWire(m.Txs) + m.Cert.WireSize() + nodesWire(m.Members)
}

// WireSize returns the exact encoded size.
func (m AggInterResultMsg) WireSize() int {
	return 2 + 8 + 8 + 8 + m.Result.WireSize()
}

// WireSize returns the exact encoded size.
func (m AggUTXOFinalMsg) WireSize() int {
	return 2 + 8 + 8 + 32 + m.Result.WireSize()
}

// WireSize returns the exact encoded size.
func (m AggEvictReqMsg) WireSize() int {
	return 2 + 8 + 8 + 4 + m.Witness.WireSize() + sliceBytesWire(m.Bitmap) + sliceBytesWire(m.Proof)
}
