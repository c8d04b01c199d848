// Candidate-set entry point for the sharded scatter-gather tier.
//
// A kSPR answer depends only on k-skyband records (paper Appendix B /
// Lemma 6: a record with >= k dominators can never push the focal out of
// a top-k cell), and the k-skyband distributes over any disjoint
// partition of the dataset:
//
//   kskyband(D) = kskyband( U_s kskyband(D_s) )   for D = U_s D_s
//
// (each shard's k-skyband is taken over its own slice; a record with
// >= k dominators globally has, summed over shards, >= k dominators that
// are themselves shard-skyband members — order the dominators inside one
// shard topologically and the first min(k, .) of them are in that shard's
// skyband — so the outer reduction removes it again). The sharded serving
// tier exploits exactly this: every shard returns its LOCAL k-skyband,
// and the functions here reduce the merged union to a canonical candidate
// set and run the cell-tree arrangement over it. Because the reduction
// result is independent of how the data was partitioned, the final
// KsprResult — regions AND stats — is bitwise-identical for every shard
// count, which is what the sharding gates in tests/test_sharding.cc and
// bench/bench_sharding.cc assert.
//
// Canonicalisation contract (the order of these steps is load-bearing):
//   1. merge per-shard skybands (disjoint by construction),
//   2. ReduceToGlobalSkyband: keep records with < k dominators inside the
//      merged set — the global k-skyband, independent of the partition,
//   3. FilterFocalCovered: drop records the focal weakly dominates
//      (dominated records and full-attribute ties) — exactly the records
//      PrepareQuery would skip, so the answer is unchanged but the
//      candidate set no longer depends on provably-invisible records,
//   4. sort by global id ascending,
//   5. SolveOnCandidates: materialise the candidates as a fresh Dataset
//      (in sorted order), STR-bulk-load an R-tree over it and run the
//      requested algorithm with the focal as a hypothetical record.
//
// Step 3 is also what makes the update-time retention test sound, and
// FocalCoversAll below is its one implementation. A cached result or a
// subscriber is untouched by a batch when its focal weakly dominates every
// changed record: PrepareQuery skips ties and dominated records alike, so
// a from-scratch run never reads them. The engine applies it to the
// records entering or leaving the live set, the router to the records
// entering or leaving a shard k-skyband (see shard/shard_router.h).
// Exception: LP-CTA and OLP-CTA read covered records through R-tree
// bounds, so their partition and stats still depend on them. The engine
// therefore never retains their entries; the router needs no exception
// because its candidate set has the covered records filtered out.

#ifndef KSPR_CORE_CANDIDATES_H_
#define KSPR_CORE_CANDIDATES_H_

#include <vector>

#include "common/types.h"
#include "common/vec.h"
#include "core/options.h"
#include "core/region.h"
#include "index/mbr.h"  // WeaklyDominates: the retention / focal-filter test

namespace kspr {

/// One candidate record as shipped by a shard: its global id plus its
/// attribute values (the router never holds the shard datasets, so values
/// travel with the id).
struct Candidate {
  RecordId global_id = kInvalidRecord;
  Vec value;
};

// (WeaklyDominates(a, b) — a >= b in every dimension, i.e. strict
// dominance or a full-attribute tie — comes from index/mbr.h. The records
// PrepareQuery drops for a focal p are exactly those with
// WeaklyDominates(p, r).)

/// Reduces a merged union of per-shard k-skybands to the global
/// k-skyband: keeps records with fewer than `k` dominators within
/// `candidates` itself. Preserves relative order.
void ReduceToGlobalSkyband(std::vector<Candidate>* candidates, int k);

/// Drops candidates weakly dominated by `focal` (they can never outscore
/// it anywhere in preference space; PrepareQuery skips them). Preserves
/// relative order. Note the focal's own record, if present, ties with
/// itself and is dropped here — SolveOnCandidates queries the focal as a
/// hypothetical record.
void FilterFocalCovered(std::vector<Candidate>* candidates,
                        const Vec& focal);

/// The update retention test: true when `focal` weakly dominates every
/// record in `changed`, so none of them can alter the focal's answer.
bool FocalCoversAll(const Vec& focal, const std::vector<Vec>& changed);

/// Sorts candidates by ascending global id — the canonical arrangement
/// insertion order (CTA inserts hyperplanes in dataset order, and the
/// candidate Dataset is materialised in this order).
void SortCandidates(std::vector<Candidate>* candidates);

/// Runs the merged arrangement: builds a Dataset holding exactly
/// `candidates` (in their current order), bulk-loads an R-tree with the
/// given parameters and answers the kSPR query for `focal` as a
/// hypothetical record with `options`. The result is a deterministic
/// function of (candidates, focal, options, leaf_capacity, fanout) —
/// nothing else — which is the bitwise shard-count-independence argument.
KsprResult SolveOnCandidates(const std::vector<Candidate>& candidates,
                             const Vec& focal, const KsprOptions& options,
                             int leaf_capacity, int fanout);

}  // namespace kspr

#endif  // KSPR_CORE_CANDIDATES_H_
