// Copyright (c) the semis authors.
// Shard-native streaming maintenance of an independent set under edge
// updates: the incremental scenario of core/incremental.h lifted onto the
// sharded substrate (SADJS shards + SDELTA overlay logs), so dynamic
// workloads get the same deterministic parallelism as the solve pipeline.
//
// Model: the base graph lives in a sharded adjacency file; updates arrive
// as a stream of edge insertions/deletions. Each update is
//   * applied eagerly to the in-memory membership (an insertion between
//     two set members evicts the larger id, O(1), exactly like
//     IncrementalMis),
//   * folded into the global delta state (core/edge_delta_state.h: the
//     inserted adjacency and the deleted keys as of the last update), and
//   * routed to the SDELTA log of every shard holding an endpoint's base
//     record. The logs are the durable redo stream: Initialize replays
//     them, and compaction retires them shard by shard.
//
// Repair() restores maximality with ONE pass over the base shards,
// probing the global delta state in O(1) per base neighbor -- a repair
// costs one base scan however large the pending delta has grown. The
// pass reads the shards through AdjacencyFileScanner and commits the
// exact sequential rule of IncrementalMis::Repair strictly in global
// manifest order, like the greedy scan (core/greedy.h):
//
//   the repaired set is byte-identical for EVERY shard count, and equal
//   to sequential IncrementalMis::Repair on the equivalent monolithic
//   file.
//
// Compact() folds saturated shards' deltas into the base: each saturated
// shard is rewritten from the same global delta state, with deletions
// dropped and insertions appended to its records. A cross-shard edge
// compacts independently on each side; docs/formats.md ("Determinism
// contract of the streaming Repair") shows why reading the global state
// for a shard whose own log no longer holds an edge gives the same
// answer. Compaction never changes the effective graph, only where it is
// stored.
//
// Durability: every multi-file mutation (compaction, re-sort) is an epoch
// commit of the journaled store layout (graph/shard_store.h): the new
// shard, log, and manifest files are staged under `<root>.epoch<E+1>*`
// names (unchanged files are hard-linked, not copied), fsynced, and
// published by atomically replacing the root pointer. A crash at ANY
// point leaves the store resolvable to a consistent epoch; Initialize
// recovers it (falling back one epoch when the current one is torn) and
// garbage-collects orphans. A legacy store (SADM manifest at the root)
// converts to the journaled layout on its first commit.
//
// Resort() restores the global (degree, id) record order that a
// degree-changing compaction invalidated: pending deltas are folded in
// (forced compaction), the store is degree-sorted into one staged SADJ
// copy by graph/degree_sort (the external sorter, under its memory
// budget) and re-sharded -- literally the unshard -> degree-sort -> shard
// rebuild -- then published through the same epoch commit.
#ifndef SEMIS_CORE_INCREMENTAL_STREAM_H_
#define SEMIS_CORE_INCREMENTAL_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/edge_delta_state.h"
#include "core/pipeline_options.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/edge_delta_file.h"
#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

/// One update of the edge stream.
struct EdgeUpdate {
  EdgeDeltaOp op = EdgeDeltaOp::kInsert;
  VertexId u = 0;
  VertexId v = 0;

  static EdgeUpdate Insert(VertexId u, VertexId v) {
    return {EdgeDeltaOp::kInsert, u, v};
  }
  static EdgeUpdate Delete(VertexId u, VertexId v) {
    return {EdgeDeltaOp::kDelete, u, v};
  }
};

/// Statistics of a streaming session (cumulative since Initialize).
struct StreamingMisStats {
  uint64_t updates_applied = 0;
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  /// Updates that were state no-ops (duplicate insert / duplicate delete)
  /// and were therefore not logged.
  uint64_t redundant_updates = 0;
  /// Vertices evicted by insertions (eager independence maintenance).
  uint64_t evictions = 0;
  /// Repair() passes executed, and vertices they re-added.
  uint64_t repair_passes = 0;
  uint64_t repair_added = 0;
  /// Compact() passes that rewrote at least one shard, and shards
  /// rewritten in total.
  uint64_t compactions = 0;
  uint64_t shards_rewritten = 0;
  /// Resort() passes that republished a degree-sorted base.
  uint64_t resorts = 0;
  /// Initialize() recoveries that had to fall back to the previous epoch
  /// because the current one was torn.
  uint64_t epoch_fallbacks = 0;
  /// Orphaned store files removed by epoch GC (recovery + commits).
  uint64_t orphan_files_removed = 0;
  /// Crash-torn log tails dropped (and rewritten clean) by Initialize:
  /// entries a previous session appended but never covered with a delta
  /// manifest republish, i.e. its unflushed final batch.
  uint64_t recovered_log_tails = 0;
  /// Live (uncompacted) delta entries currently held, summed over shards.
  uint64_t pending_delta_entries = 0;
  /// I/O of the whole session (routing, repair scans, compaction).
  IoStats io;
  /// Peak logical bytes of the maintainer's in-memory structures, plus
  /// the re-sort's sorter memory while Resort() runs.
  size_t peak_memory_bytes = 0;
  /// Wall-clock seconds by stage.
  double apply_seconds = 0.0;
  double repair_seconds = 0.0;
  double compact_seconds = 0.0;
  double resort_seconds = 0.0;
};

/// Maintains an independent set over "sharded base file + SDELTA overlay".
///
/// Concurrency contract: this class holds no mutex on purpose. All
/// public methods are externally serialized per object (MisEngine is the
/// one concurrent caller and serializes them); Repair's internal
/// parallelism hands each worker a private slice and merges after the
/// thread-pool barrier, which is the happens-before edge. See
/// docs/architecture.md ("Static analysis") for the conventions.
class ShardedStreamingMis {
 public:
  ShardedStreamingMis() = default;

  /// Binds the maintainer to the sharded store rooted at `manifest_path`
  /// (a legacy SADM manifest or a journaled SEPR root; see
  /// graph/shard_store.h) and a starting independent set over its BASE
  /// graph. Runs crash recovery first: resolves the root, falls back to
  /// the previous epoch if the current one is torn (making the fallback
  /// durable), and garbage-collects orphaned epoch files. Builds the
  /// vertex-to-shard routing map with one pass over the shards. If an
  /// SDELTA overlay already exists next to the manifest, its logs are
  /// replayed in sequence order on top of `initial_set`, reproducing the
  /// previous session's delta state and eager evictions exactly. Repair
  /// additions are NOT logged, so if the previous session ran Repair()
  /// mid-stream the replayed membership may lag it -- it is still
  /// independent w.r.t. the updated graph, and the next Repair() restores
  /// maximality.
  ///
  /// `options` is the shared pipeline struct: this layer reads
  /// `compact_threshold_entries` and `auto_resort`; `num_shards` is
  /// ignored (the manifest fixes it), and so is `num_threads` (Repair is
  /// one sequential scan).
  Status Initialize(const std::string& manifest_path,
                    const BitVector& initial_set,
                    const EnginePipelineOptions& options);

  /// Applies a batch of updates in order: eager eviction, delta-state
  /// bookkeeping, and routing to the shard logs (flushed, with the delta
  /// manifest republished, before returning). Self-loops and out-of-range
  /// ids fail the whole batch up front with InvalidArgument -- no partial
  /// application. A duplicate insert (edge already live in the delta) or
  /// duplicate delete is a state no-op and is not logged. When
  /// `compact_threshold_entries` is set, saturated shards are compacted
  /// after the batch.
  Status ApplyBatch(const std::vector<EdgeUpdate>& updates);

  /// Restores maximality with one merged pass over base shards + delta
  /// (see the file comment for the determinism contract). Safe to call at
  /// any time.
  Status Repair();

  /// Rewrites every saturated shard (every shard with a non-empty log
  /// when `force` is set) with its delta folded in and publishes the
  /// result as a new epoch of the journaled store: compacted shards are
  /// written fresh under the next epoch's names, untouched shards and
  /// logs are hard-linked across, compacted logs restart empty, and the
  /// whole file set commits atomically via the root pointer (converting a
  /// legacy store on its first commit). Clears the degree-sorted flag
  /// when a rewrite changed any record, since the global (degree, id)
  /// order can no longer be guaranteed -- then runs Resort() when
  /// `options.auto_resort` is set. A failure before the root flip leaves
  /// both the store and the maintainer untouched (the staged files are
  /// orphans for GC); only a failure in the flip itself wedges.
  Status Compact(bool force = false);

  /// Restores the global (degree, id) record order after degree-changing
  /// compactions cleared the degree-sorted flag. Folds pending deltas in
  /// first (forced compaction), then runs BuildDegreeSortedAdjacencyFile
  /// (default DegreeSortOptions: 64 MiB budget, fan-in 16) into a staged
  /// SADJ copy and ShardAdjacencyFile into a fresh base with the same
  /// shard count, published as a new epoch. The result is therefore
  /// byte-identical to a fresh unshard -> degree-sort -> shard rebuild of
  /// the same store; `num_threads` does not affect it. Memory is the
  /// sorter's budget plus the maintainer's O(|V|) state, independent of
  /// shard sizes. No-op when the base is already degree-sorted. The
  /// effective graph and the maintained set are unchanged.
  Status Resort();

  /// Current membership (independent w.r.t. the updated graph after every
  /// ApplyBatch; additionally maximal right after Repair()).
  const BitVector& set() const { return set_; }

  /// Current |set|.
  uint64_t set_size() const { return set_size_; }

  /// Session statistics so far.
  const StreamingMisStats& stats() const { return stats_; }

  /// Logical bytes of the maintainer's in-memory structures right now:
  /// routing map, membership, the global delta state (inserted adjacency,
  /// deleted keys, gate bits) and the pending log mirror.
  /// `stats().peak_memory_bytes` is the high-water mark of this figure
  /// (plus the re-sort's sorter memory).
  size_t CurrentMemoryBytes() const;

  /// The SADJS manifest as of the last Initialize/Compact/Resort.
  const ShardedAdjacencyManifest& manifest() const { return manifest_; }

  /// Where the store root resolved to (epoch numbers, fallback state).
  const ResolvedShardStore& store() const { return store_; }

 private:
  Status ValidateUpdate(const EdgeUpdate& update) const;
  // Applies one validated update to the in-memory state; returns true if
  // it changed the delta state (and must be logged).
  bool ApplyToState(const EdgeUpdate& update);
  // Replays existing delta logs on top of the initial set (restart path).
  Status ReplayExistingDelta();
  // Rewrites shard `shard`'s log from pending_[shard] (header + entries).
  Status RewriteShardLog(uint32_t shard);
  // Merges pending_ across shards by sequence number, dropping the second
  // routed copy of cross-shard updates (and validating the copies agree),
  // and calls `fn` once per update in stream order.
  template <typename Fn>
  Status ForEachMergedPendingEntry(Fn&& fn) const;
  // Writes shard `shard` with its delta folded in to `out_path` (a staged
  // file of the next epoch).
  Status CompactShard(uint32_t shard, const std::string& out_path,
                      ShardInfo* new_info, uint32_t* max_degree_seen,
                      bool* records_changed);
  // Rebuilds the vertex-to-shard routing map by scanning the shards.
  Status BuildRouteMap();
  // The commit point of an epoch transaction: fsyncs the staged files of
  // epoch `next_epoch`, atomically flips the root pointer, and updates
  // store_/manifest_path_/delta_path_. Every staged path must be in
  // `staged_files`. GC of retired files is the caller's final step (after
  // its in-memory state matches the new epoch). A failure in the flip
  // itself wedges the maintainer -- disk may be either epoch.
  Status PublishEpoch(uint64_t next_epoch,
                      const std::vector<std::string>& staged_files);
  // Epoch GC + orphan accounting (after a successful commit).
  Status CollectStoreGarbage();
  Status ResortInternal();
  // Rebuilds delta_ from the pending per-shard entries (after compaction
  // retired some of them).
  Status RebuildDeltaState();
  void AccountMemory();

  // The store root as given to Initialize (SEPR pointer or legacy SADM).
  std::string root_path_;
  // Where the root resolved: epoch numbers and the serving manifest path.
  ResolvedShardStore store_;
  // The SADM manifest path serving this epoch (== store_.manifest_path).
  std::string manifest_path_;
  std::string delta_path_;
  ShardedAdjacencyManifest manifest_;
  EnginePipelineOptions options_;
  uint64_t n_ = 0;
  // Shard holding each vertex's base record (records are permuted by the
  // degree sort, so this is not derivable from the id). kMaxAdjacencyShards
  // fits comfortably in 16 bits.
  std::vector<uint16_t> shard_of_;
  BitVector set_;
  uint64_t set_size_ = 0;
  // Global delta state (the CURRENT effective delta, deduplicated), kept
  // up to date by every applied update and read directly by Repair and
  // Compact.
  EdgeDeltaState delta_;
  // Pending (uncompacted) entries per shard, in sequence order -- the
  // in-memory mirror of the on-disk logs.
  std::vector<std::vector<EdgeDeltaEntry>> pending_;
  uint64_t next_sequence_ = 0;
  StreamingMisStats stats_;
  bool initialized_ = false;
  // True while Resort() runs its internal forced compaction, so that
  // compaction does not recurse into auto-resort.
  bool in_resort_ = false;
  // Set when a flush/compaction failed after mutating state, leaving the
  // in-memory maintainer ahead of (or torn against) the on-disk overlay.
  // Further mutations are refused; re-Initialize to recover from disk.
  bool wedged_ = false;
};

}  // namespace semis

#endif  // SEMIS_CORE_INCREMENTAL_STREAM_H_
