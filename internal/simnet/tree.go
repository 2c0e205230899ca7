package simnet

import "math/bits"

// Binomial broadcast tree: the dissemination primitive for O(log n) leader
// egress. Ranks 0..n-1 are positions in an agreed roster order (root
// first); rank j's children are j + 2^t for every power of two 2^t > j
// with j + 2^t < n. Rank 0 therefore sends to ranks 1, 2, 4, 8, …, each of
// which relays to its own subtree, and every rank is reached in at most
// TreeDepth(n) = ⌈log₂ n⌉ hops. The rule is purely positional — no shared
// state, no channel setup — so any transport disseminates by having each
// receiver compute TreeChildren of its own rank and forward. A crashed or
// partitioned interior node silences exactly its subtree, which the
// protocol's per-phase silence watchdogs then observe as a missing
// artifact.

// TreeChildren returns the ranks rank relays to in an n-node binomial
// broadcast tree, in ascending order. Rank 0 is the root; out-of-range
// ranks have no children.
func TreeChildren(rank, n int) []int {
	if rank < 0 || rank >= n {
		return nil
	}
	var kids []int
	for step := 1; rank+step < n; step <<= 1 {
		if step > rank {
			kids = append(kids, rank+step)
		}
	}
	return kids
}

// TreeDepth returns the dissemination depth bound of an n-node binomial
// broadcast tree: ⌈log₂ n⌉ (0 for n ≤ 1). Every rank is reached from the
// root in at most this many hops (a rank's hop count is the popcount of
// its rank, which Len(n-1) bounds).
func TreeDepth(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
