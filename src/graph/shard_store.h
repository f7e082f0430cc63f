// Copyright (c) the semis authors.
// Root resolution, recovery, and epoch garbage collection for sharded
// stores (SADJS + optional SDELTA overlay).
//
// A store rooted at `<root>` comes in two layouts:
//
//   * legacy: `<root>` IS the SADM manifest; shards and delta logs sit at
//     `<root>.shard<K>` / `<root>.delta*`. Mutations republish files
//     per-file atomically but not transactionally across files.
//   * journaled: `<root>` holds a SEPR root pointer (io/epoch_journal.h)
//     naming the current epoch E; the manifest lives at `<root>.epoch<E>`
//     and everything else derives from it. Multi-file mutations build
//     epoch E+1 under its own names and commit by atomically replacing
//     the root pointer -- any crash point resolves to a consistent epoch.
//
// Legacy stores convert to journaled on their first epoch commit (the
// first compaction or re-sort); plain solves never convert anything.
//
// ResolveShardStore is the read-only half (scanners, verify, stats): it
// routes on the root magic, validates the current epoch cheaply, and
// falls back to the previous epoch in memory when the current one is
// damaged. RecoverShardStore is the writer half (ShardedStreamingMis
// initialization, fsck --gc): it additionally makes a fallback durable by
// rewriting the root pointer and removes orphaned files (half-committed
// epochs, staging files, retired epochs, converted legacy names).
//
// GC keeps the current AND previous epochs, so a reader that resolved the
// store just before a commit can still finish its scan afterwards; only
// the epoch retired by the NEXT commit disappears.
#ifndef SEMIS_GRAPH_SHARD_STORE_H_
#define SEMIS_GRAPH_SHARD_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/sharded_adjacency_file.h"
#include "io/io_stats.h"
#include "util/status.h"

namespace semis {

/// Where a store root resolved to.
struct ResolvedShardStore {
  std::string root_path;
  /// The SADM manifest serving reads: `root_path` itself for a legacy
  /// store, `<root>.epoch<current_epoch>` for a journaled one.
  std::string manifest_path;
  bool journaled = false;
  /// 0 for legacy stores; >= 1 once journaled.
  uint64_t current_epoch = 0;
  /// 0 when no fallback epoch exists.
  uint64_t previous_epoch = 0;
  /// True when the root's current epoch failed validation and the
  /// previous epoch is serving instead.
  bool fell_back = false;
};

/// Outcome of RecoverShardStore beyond the resolution itself.
struct ShardStoreRecovery {
  bool fell_back = false;
  uint64_t orphan_files_removed = 0;
};

/// Cheap consistency check of one epoch (or legacy) manifest: the
/// manifest parses, every shard file has exactly the size its totals
/// imply, and -- when a delta overlay exists -- the delta manifest parses,
/// matches the SADM manifest, and every log holds at least its declared
/// entries (a longer log is a tolerated crash tail, a shorter one is
/// truncation). Reads O(shards) metadata, not the data itself.
Status ValidateShardStoreEpoch(const std::string& manifest_path,
                               IoStats* stats = nullptr);

/// Read-only root resolution (see the file comment). Never writes.
/// Fails with Corruption when neither the current nor the previous epoch
/// validates. Only damage (a torn or missing file) triggers the fallback;
/// any other I/O error of the validation is returned as is. A root that
/// is neither SEPR nor SADM resolves as legacy and leaves the format
/// error to the manifest reader, preserving its diagnostics.
Status ResolveShardStore(const std::string& root_path, ResolvedShardStore* out,
                         IoStats* stats = nullptr);

/// Writer-side resolution: ResolveShardStore, then makes any fallback
/// durable (rewrites the root pointer to name the surviving epoch) and
/// garbage-collects orphaned files. `recovery` may be null.
Status RecoverShardStore(const std::string& root_path, ResolvedShardStore* out,
                         ShardStoreRecovery* recovery = nullptr,
                         IoStats* stats = nullptr);

/// Lists files in the store's directory that belong to no live epoch:
/// staging files (`*.tmp`, `*.resort<k>`), epochs outside
/// {current, previous}, epoch files next to an unconverted legacy root
/// (a crashed conversion), and legacy-layout names left behind by a
/// completed conversion. Paths are returned sorted.
Status ListShardStoreOrphans(const ResolvedShardStore& resolved,
                             std::vector<std::string>* orphans);

/// Removes every orphan (ListShardStoreOrphans) and fsyncs the directory
/// once when anything was removed. `removed` may be null.
Status GarbageCollectShardStore(const ResolvedShardStore& resolved,
                                uint64_t* removed = nullptr);

/// The one store opener: resolves `root_path` read-only (a SADJS manifest
/// or a SEPR root) and reads the serving SADM manifest. When
/// `manifest_path` is non-null it receives that manifest's path, from
/// which the shard paths derive.
Status ReadShardStoreManifest(const std::string& root_path,
                              ShardedAdjacencyManifest* out,
                              IoStats* stats = nullptr,
                              std::string* manifest_path = nullptr);

/// As above, for a caller that has already read the root's magic (its
/// first four bytes): routes on `root_magic` instead of opening the root
/// a second time to probe it.
Status ReadShardStoreManifest(const std::string& root_path,
                              uint32_t root_magic,
                              ShardedAdjacencyManifest* out, IoStats* stats,
                              std::string* manifest_path);

}  // namespace semis

#endif  // SEMIS_GRAPH_SHARD_STORE_H_
