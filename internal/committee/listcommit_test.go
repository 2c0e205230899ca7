package committee

import (
	"math/rand"
	"slices"
	"testing"

	"cycledger/internal/crypto"
	"cycledger/internal/simnet"
)

// directoryOracle is the semi-commitment as the map-backed Directory
// used to compute it: add every record (a later one for the same node
// overwrites), sort the node IDs, and hash tag ‖ (ID ‖ PK)* through the
// one-shot H with its materialised part list.
func directoryOracle(recs []MemberRecord) crypto.Digest {
	byNode := make(map[simnet.NodeID]MemberRecord)
	for _, rec := range recs {
		byNode[rec.Node] = rec
	}
	ids := make([]simnet.NodeID, 0, len(byNode))
	for id := range byNode {
		ids = append(ids, id)
	}
	simnet.SortNodeIDs(ids)
	parts := [][]byte{[]byte("cycledger/semicom/v1")}
	for _, id := range ids {
		rec := byNode[id]
		nb := []byte{byte(id >> 24), byte(id >> 16), byte(id >> 8), byte(id)}
		parts = append(parts, nb, rec.PK)
	}
	return crypto.H(parts...)
}

func fakeRecord(rng *rand.Rand, node simnet.NodeID) MemberRecord {
	pk := make([]byte, 32)
	rng.Read(pk)
	var h crypto.Digest
	rng.Read(h[:])
	return MemberRecord{Node: node, PK: pk, Hash: h, Proof: []byte{byte(node)}}
}

// TestListCommitmentMatchesDirectory: the streaming digest equals the
// Directory-built one for sorted, unsorted, duplicate-ID and empty lists,
// as a Byzantine leader may send any of them, and never reorders the
// caller's slice.
func TestListCommitmentMatchesDirectory(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sorted := make([]MemberRecord, 12)
	for i := range sorted {
		sorted[i] = fakeRecord(rng, simnet.NodeID(3*i+1))
	}
	unsorted := slices.Clone(sorted)
	rng.Shuffle(len(unsorted), func(i, j int) { unsorted[i], unsorted[j] = unsorted[j], unsorted[i] })
	// The same node twice with different keys: the later record wins,
	// whether the duplicates are adjacent in a sorted list or scattered.
	dupSorted := slices.Insert(slices.Clone(sorted), 5, fakeRecord(rng, sorted[4].Node))
	dupScattered := append(slices.Clone(unsorted), fakeRecord(rng, unsorted[0].Node))
	negative := []MemberRecord{fakeRecord(rng, -7), fakeRecord(rng, 2), fakeRecord(rng, 1<<30)}

	cases := map[string][]MemberRecord{
		"empty":         nil,
		"single":        sorted[:1],
		"sorted":        sorted,
		"unsorted":      unsorted,
		"dup-adjacent":  dupSorted,
		"dup-scattered": dupScattered,
		"dup-only":      {sorted[0], fakeRecord(rng, sorted[0].Node), fakeRecord(rng, sorted[0].Node)},
		"negative-id":   negative,
	}
	for name, recs := range cases {
		before := slices.Clone(recs)
		want := directoryOracle(recs)
		if got := ListCommitment(recs); got != want {
			t.Errorf("%s: ListCommitment = %x, Directory oracle = %x", name, got[:6], want[:6])
		}
		d := NewDirectory()
		for _, rec := range recs {
			d.Add(rec)
		}
		if got := d.SemiCommitment(); got != want {
			t.Errorf("%s: Directory.SemiCommitment = %x, oracle = %x", name, got[:6], want[:6])
		}
		for i := range recs {
			if recs[i].Node != before[i].Node || string(recs[i].PK) != string(before[i].PK) {
				t.Fatalf("%s: ListCommitment reordered its input at %d", name, i)
			}
		}
	}
	if ListCommitment(dupSorted) == ListCommitment(sorted) {
		t.Fatal("the later duplicate's key did not reach the digest")
	}
}

// TestListCommitmentRandomLists runs the oracle comparison over random
// lists drawn from a small ID space, so duplicates and disorder are common.
func TestListCommitmentRandomLists(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 300; trial++ {
		recs := make([]MemberRecord, rng.Intn(20))
		for i := range recs {
			recs[i] = fakeRecord(rng, simnet.NodeID(rng.Intn(16)))
		}
		if trial%3 == 0 {
			slices.SortFunc(recs, func(a, b MemberRecord) int { return int(a.Node) - int(b.Node) })
		}
		if got, want := ListCommitment(recs), directoryOracle(recs); got != want {
			t.Fatalf("trial %d (%d records): ListCommitment = %x, oracle = %x", trial, len(recs), got[:6], want[:6])
		}
	}
}
