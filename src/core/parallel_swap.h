// Copyright (c) the semis authors.
// Parallel round executor for the swap algorithms over a *sharded*
// adjacency file (graph/sharded_adjacency_file.h): every scan phase of a
// round fans the shards out over a thread pool, each worker scanning its
// shard with a private reader and proposing swaps against shared
// vertex-state tables.
//
// Determinism contract (the reason results are byte-identical for every
// thread count, including one):
//   * each phase reads only state frozen by the previous phase barrier and
//     writes either (a) per-vertex slots owned by the record being scanned,
//     (b) commutative atomics (counters), or (c) idempotent atomic flags
//     (mark-removed); none of these depend on scan interleaving;
//   * swap-candidate discovery that needs scan-order context (the 2<->k
//     SC buckets of Algorithm 4, kept in the SwapCandidateIndex the
//     sequential two-k swap uses too) is shard-local: each worker clears
//     its index at every shard start and only combines records of the
//     shard it is scanning, and shard contents are fixed by the file, not
//     by the thread count;
//   * conflicting promotions are resolved by a fixed priority: the lowest
//     vertex id wins, evaluated independently per vertex.
// Consequently the executor with num_threads == 1 IS the sequential path;
// any other thread count reproduces its output bit for bit. The result
// generally differs from the monolithic RunOneKSwap/RunTwoKSwap (conflict
// resolution is by vertex id, not file position), but satisfies the same
// invariants: the returned set is independent and, with the final
// maximality pass, maximal.
//
// Concurrency contract: no mutex -- shared per-vertex state is atomics
// with the ownership/commutativity rules above, per-worker scratch is
// indexed by worker id, and the phase barrier (ThreadPool completion) is
// the happens-before edge for everything a later phase reads. See
// docs/architecture.md ("Static analysis") for the conventions.
#ifndef SEMIS_CORE_PARALLEL_SWAP_H_
#define SEMIS_CORE_PARALLEL_SWAP_H_

#include <string>
#include <vector>

#include "core/mis_common.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace semis {

/// Options for the parallel swap executor.
struct ParallelSwapOptions {
  /// Stop after this many rounds (0 = until no proposals fire).
  uint32_t max_rounds = 0;
  /// Worker threads scanning shards (0 = hardware concurrency). The
  /// result is independent of this value by construction.
  uint32_t num_threads = 1;
  /// Enable 2<->k swap skeleton discovery (shard-local SC buckets) in
  /// addition to 1<->k swaps. Off reproduces one-k-swap semantics.
  bool enable_two_k = true;
  /// Final join loop guaranteeing maximality (see OneKSwapOptions).
  bool final_maximality_pass = true;
  /// Safety valve carried over from TwoKSwapOptions: max pairs per SC
  /// bucket during one shard scan.
  uint32_t max_pairs_per_bucket = 64;
  /// Stop after this many consecutive rounds without net set growth
  /// (0 = never; mirrors the sequential stall guard).
  uint32_t stall_round_limit = 3;
};

/// Runs parallel swap rounds on the sharded adjacency file rooted at
/// `manifest_path`, starting from `initial_set` (an independent set over
/// the same graph, e.g. the greedy result). Per-thread IoStats and
/// shard-local memory use are merged into `result`'s aggregates.
Status RunParallelSwap(const std::string& manifest_path,
                       const BitVector& initial_set,
                       const ParallelSwapOptions& options, AlgoResult* result);

/// As above, but seeded from a final greedy state array (kI per member)
/// so a sharded greedy -> parallel swap pipeline hands its states over
/// directly instead of round-tripping through a bit vector.
Status RunParallelSwap(const std::string& manifest_path,
                       const std::vector<VState>& initial_states,
                       const ParallelSwapOptions& options, AlgoResult* result);

}  // namespace semis

#endif  // SEMIS_CORE_PARALLEL_SWAP_H_
