// Package committee implements CycLedger's committee machinery: the
// cryptographic sortition of Algorithm 1, the member directory with its
// canonical encoding (the input of the semi-commitment H(S)), and the
// message-driven committee-configuration protocol of Algorithm 2.
package committee

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// SortitionResult is the outcome of Algorithm 1 for one node.
type SortitionResult struct {
	CommitteeID uint64
	Out         crypto.VRFOutput
}

// Sortition is Algorithm 1: the VRF over COMMON_MEMBER ‖ r ‖ R_r assigns
// the node to committee hash mod m and yields the proof π.
func Sortition(kp crypto.KeyPair, round uint64, randomness crypto.Digest, m uint64) SortitionResult {
	if m == 0 {
		panic("committee: zero committees")
	}
	out := crypto.VRFProve(kp.SK, crypto.SortitionInput(round, randomness))
	return SortitionResult{CommitteeID: out.Hash.Mod(m), Out: out}
}

// VerifySortition checks a claimed committee membership: the VRF proof must
// verify and the committee ID must equal hash mod m.
func VerifySortition(pk crypto.PublicKey, round uint64, randomness crypto.Digest, m uint64, claimed uint64, out crypto.VRFOutput) error {
	if m == 0 {
		return fmt.Errorf("committee: zero committees")
	}
	if err := crypto.VRFVerify(pk, crypto.SortitionInput(round, randomness), out); err != nil {
		return err
	}
	if got := out.Hash.Mod(m); got != claimed {
		return fmt.Errorf("committee: claimed committee %d, proof yields %d", claimed, got)
	}
	return nil
}

// MemberRecord is one entry of the member list S: the node's address
// (simulator node ID), public key, and sortition certificate.
type MemberRecord struct {
	Node  simnet.NodeID
	PK    crypto.PublicKey
	Hash  crypto.Digest
	Proof []byte
}

// Directory is a member list S. Records are kept sorted by node ID so the
// canonical encoding — and hence the semi-commitment — is independent of
// arrival order.
type Directory struct {
	records map[simnet.NodeID]MemberRecord
}

// NewDirectory returns an empty member list.
func NewDirectory() *Directory {
	return &Directory{records: make(map[simnet.NodeID]MemberRecord)}
}

// Add inserts or overwrites a record.
func (d *Directory) Add(rec MemberRecord) {
	d.records[rec.Node] = rec
}

// Holds reports whether the directory stores exactly rec: same node, public
// key, sortition hash and proof.
func (d *Directory) Holds(rec MemberRecord) bool {
	cur, ok := d.records[rec.Node]
	return ok && cur.Hash == rec.Hash && bytes.Equal(cur.PK, rec.PK) && bytes.Equal(cur.Proof, rec.Proof)
}

// Merge unions another directory into this one.
func (d *Directory) Merge(other *Directory) {
	for _, rec := range other.records {
		d.Add(rec)
	}
}

// Contains reports membership.
func (d *Directory) Contains(id simnet.NodeID) bool {
	_, ok := d.records[id]
	return ok
}

// Len returns the member count.
func (d *Directory) Len() int { return len(d.records) }

// Nodes returns the member node IDs in sorted order.
func (d *Directory) Nodes() []simnet.NodeID {
	out := make([]simnet.NodeID, 0, len(d.records))
	for id := range d.records {
		out = append(out, id)
	}
	simnet.SortNodeIDs(out)
	return out
}

// Records returns the records sorted by node ID.
func (d *Directory) Records() []MemberRecord {
	nodes := d.Nodes()
	out := make([]MemberRecord, len(nodes))
	for i, id := range nodes {
		out[i] = d.records[id]
	}
	return out
}

// Clone deep-copies the directory.
func (d *Directory) Clone() *Directory {
	c := NewDirectory()
	for _, rec := range d.records {
		c.Add(rec)
	}
	return c
}

// SemiCommitment returns H(S) over the canonical encoding — the
// committee's semi-commitment of §IV-B. Computational binding is inherited
// from the collision resistance of H (Lemma 1).
func (d *Directory) SemiCommitment() crypto.Digest {
	return ListCommitment(d.Records())
}

// ListCommitment returns H(S) for a member list as received: the
// SemiCommitment of the Directory built by adding recs in order. The
// canonical encoding is tag ‖ (node ID ‖ PK)* in node-ID order, and for a
// node listed more than once the later record wins. A strictly sorted
// list — what an honest leader sends — is hashed as it stands, straight
// into the framed hash; any other list is canonicalised on a copy first.
func ListCommitment(recs []MemberRecord) crypto.Digest {
	if !strictlySorted(recs) {
		recs = canonicalRecords(recs)
	}
	f := crypto.NewFramed()
	f.Part([]byte("cycledger/semicom/v1"))
	var nb [4]byte
	for _, rec := range recs {
		binary.BigEndian.PutUint32(nb[:], uint32(rec.Node))
		f.Part(nb[:])
		f.Part(rec.PK)
	}
	return f.Sum()
}

// strictlySorted reports whether node IDs strictly increase along recs,
// which rules out duplicates as well as disorder.
func strictlySorted(recs []MemberRecord) bool {
	for i := 1; i < len(recs); i++ {
		if recs[i].Node <= recs[i-1].Node {
			return false
		}
	}
	return true
}

// canonicalRecords returns recs sorted by node ID with one record per
// node, the last one listed — the Directory's view of the same list.
func canonicalRecords(recs []MemberRecord) []MemberRecord {
	out := slices.Clone(recs)
	slices.SortStableFunc(out, func(a, b MemberRecord) int { return cmp.Compare(a.Node, b.Node) })
	n := 0
	for i, rec := range out {
		if i+1 < len(out) && out[i+1].Node == rec.Node {
			continue
		}
		out[n] = rec
		n++
	}
	return out[:n]
}
