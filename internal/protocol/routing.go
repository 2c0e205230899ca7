package protocol

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cycledger/internal/ledger"
	"cycledger/internal/reputation"
)

// routedWork is one round's transaction assignment, produced exactly once
// per round by the workload stage: the offered batch split into per-shard
// intra lists and (input shard → output shard) cross lists, plus the
// honest verdict vector for each committee's list, precomputed on a
// per-shard worker pool against shard-local views so the (identical)
// honest validation work is not repeated by every committee member inside
// the network simulation.
type routedWork struct {
	offered  []*ledger.Tx
	intra    map[uint64][]*ledger.Tx
	cross    map[uint64]map[uint64][]*ledger.Tx
	verdicts map[uint64]reputation.VoteVector
}

// stageWorkload builds the round's routed work: it consumes the batch the
// prefetch stage generated ahead of time (pipelined mode, round ≥ 2) or
// draws one now, routes it once against the settled ledger view, and
// precomputes per-shard honest verdicts. Routing always happens here —
// never in the prefetch stage — so intra/cross classification sees the
// previous round's applies and the pipelined engine's work lists are
// identical to the sequential engine's.
func (e *Engine) stageWorkload() {
	batch := e.nextBatch
	e.nextBatch = nil
	if batch == nil {
		batch = e.gen.NextBatch(e.P.M * e.P.TxPerCommittee)
	}
	w := e.routeBatch(batch)
	e.precomputeVerdicts(w)
	e.work = w
}

// routeBatch classifies every transaction once against the current ledger
// view (§IV-C/D): intra-shard transactions go to their home committee's
// list, unresolvable-input transactions are offered to their first output
// shard (where they will be voted No), and cross-shard transactions are
// filed under (first input shard → first other touched shard). The input,
// output, and union shard sets come from one combined ShardScratch pass
// per transaction (interned owner digests, slice-based sets, buffers
// reused across the batch) instead of the three separate map-building
// calls this loop used to make.
func (e *Engine) routeBatch(batch []*ledger.Tx) *routedWork {
	w := &routedWork{
		offered: batch,
		intra:   make(map[uint64][]*ledger.Tx),
		cross:   make(map[uint64]map[uint64][]*ledger.Tx),
	}
	var sc ledger.ShardScratch
	for _, tx := range batch {
		sc.Compute(tx, e.utxo, e.roster.M)
		shards := sc.Touched
		switch {
		case len(shards) <= 1:
			k := uint64(0)
			if len(shards) == 1 {
				k = shards[0]
			} else if len(sc.Out) > 0 {
				k = sc.Out[0] // unresolvable inputs: offered to the output shard, voted No
			}
			w.intra[k] = append(w.intra[k], tx)
		default:
			i := shards[0]
			if len(sc.In) > 0 {
				i = sc.In[0]
			}
			j := shards[0]
			if j == i && len(shards) > 1 {
				j = shards[1]
			}
			if w.cross[i] == nil {
				w.cross[i] = make(map[uint64][]*ledger.Tx)
			}
			w.cross[i][j] = append(w.cross[i][j], tx)
		}
	}
	return w
}

// effectiveParallelism resolves P.Parallelism for the engine's CPU worker
// pools, additionally capped at GOMAXPROCS: unlike simnet's event pool,
// these stages are pure computation, so workers beyond the physical cores
// only add scheduling overhead (results are pool-size-independent either
// way).
func (e *Engine) effectiveParallelism() int {
	w := e.P.Parallelism
	if max := runtime.GOMAXPROCS(0); w <= 0 || w > max {
		w = max
	}
	return w
}

// parallelFor runs fn(i) for every i in [0, n) on up to
// effectiveParallelism() goroutines that claim indices from a shared
// counter. fn must be safe to call concurrently for distinct indices and
// must write only index-owned state, so results never depend on which
// worker ran which index. With one worker the loop runs inline, in index
// order, on the caller's goroutine.
func (e *Engine) parallelFor(n int, fn func(i int)) {
	workers := min(e.effectiveParallelism(), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// precomputeVerdicts computes each committee's honest vote vector on the
// engine's worker pool. Every honest member of committee k evaluates the
// same list in the same order against the same state, so the vector is a
// per-shard fact, not a per-node one; nodes then derive their actual votes
// from it through their Behavior (see voteOnTxs). Shard-local speculative
// views (overlays over the striped store) keep validation free of
// cross-shard lock contention.
func (e *Engine) precomputeVerdicts(w *routedWork) {
	shards := make([]uint64, 0, len(w.intra))
	for k := range w.intra {
		shards = append(shards, k)
	}
	verdicts := make([]reputation.VoteVector, len(shards))
	e.parallelFor(len(shards), func(i int) {
		verdicts[i] = e.honestVerdictFor(w.intra[shards[i]])
	})
	w.verdicts = make(map[uint64]reputation.VoteVector, len(shards))
	for i, k := range shards {
		w.verdicts[k] = verdicts[i]
	}
}

// honestVerdictFor evaluates one committee's list in order. With
// ParallelBlockGen (§VIII-B) the verdicts are computed against a
// copy-on-write overlay so chained transactions in one list can both pass;
// otherwise each transaction is judged independently against the store.
func (e *Engine) honestVerdictFor(txs []*ledger.Tx) reputation.VoteVector {
	var view ledger.UTXOView = e.utxo
	var overlay *ledger.Overlay
	if e.P.ParallelBlockGen {
		overlay = ledger.NewOverlay(e.utxo)
		view = overlay
	}
	out := make(reputation.VoteVector, len(txs))
	for i, tx := range txs {
		out[i] = reputation.No
		if _, err := ledger.Validate(tx, view); err == nil {
			out[i] = reputation.Yes
			if overlay != nil {
				_ = overlay.ApplyTx(tx)
			}
		}
	}
	return out
}

// honestVerdicts returns the precomputed verdict vector for committee k
// when the supplied list is the one the engine primed, and falls back to a
// fresh evaluation otherwise (e.g. a byzantine leader substituted a list).
// The returned vector must be treated as read-only.
func (e *Engine) honestVerdicts(k uint64, txs []*ledger.Tx) reputation.VoteVector {
	if w := e.work; w != nil && sameTxList(w.intra[k], txs) {
		return w.verdicts[k]
	}
	return e.honestVerdictFor(txs)
}

// sameTxList reports whether b is exactly the primed list a (the in-process
// simulation passes lists by reference, so pointer comparison suffices and
// stays cheap on the hot path).
func sameTxList(a, b []*ledger.Tx) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stagePrefetch (pipelined mode) generates the next round's batch while
// the current block is still being certified and propagated, so round
// r+1's transaction processing overlaps round r's tail — the §IV
// parallel-pipeline structure. It must run after the ledger stage: the
// generator's Reject bookkeeping for this round reshapes its model before
// the next batch is drawn. Only generation is prefetched; the per-shard
// routing waits for the next workload stage so it classifies against the
// post-apply ledger view.
func (e *Engine) stagePrefetch() {
	e.nextBatch = e.gen.NextBatch(e.P.M * e.P.TxPerCommittee)
}
