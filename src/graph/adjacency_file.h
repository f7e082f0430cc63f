// Copyright (c) the semis authors.
// The adjacency record encoding consumed by every semi-external algorithm
// in this library, its one encoder and its one reader.
//
// A record is `u32 id  u32 degree  u32 neighbor[degree]` (little endian).
// It is stored in two formats:
//
//   * SADJ (version 1), one file:
//       u32 magic 'SADJ'  u32 version
//       u64 num_vertices  u64 num_directed_edges (= sum of degrees)
//       u32 flags         u32 max_degree
//       then one record per vertex, in FILE order (which need not be id
//       order -- degree-sorted files permute the records);
//   * SADJS, a store of shard files behind a manifest, holding the same
//     records split in order (sharded_adjacency_file.h).
//
// AdjacencyShardReader is the only decoder: it reads one shard and
// validates every record against the totals of its manifest. A SADJ file
// is read as a one-shard store whose implicit manifest holds the header's
// totals. AdjacencyFileScanner walks all shards of any store in order --
// there is no random access, matching the paper's semi-external model.
//
// Records are decoded in place: a record view points into the file
// reader's buffer and is valid until the next call on the reader that
// returned it. Copy a record to keep it longer.
#ifndef SEMIS_GRAPH_ADJACENCY_FILE_H_
#define SEMIS_GRAPH_ADJACENCY_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "io/file.h"
#include "io/io_stats.h"
#include "util/common.h"
#include "util/status.h"

namespace semis {

/// Flag: records appear in ascending order of (degree, id). Produced by
/// the preprocessing sort (Section 4.1) and required by GREEDY for its
/// approximation quality (BASELINE omits it).
inline constexpr uint32_t kAdjFlagDegreeSorted = 1u << 0;

/// Magic of a SADJ file.
inline constexpr uint32_t kAdjacencyFileMagic = 0x4A444153u;  // 'SADJ'

/// One decoded record: `neighbors` points into the reader that returned
/// it and stays valid until that reader's next call.
struct VertexRecordView {
  VertexId id = 0;
  uint32_t degree = 0;
  const VertexId* neighbors = nullptr;

  const VertexId* begin() const { return neighbors; }
  const VertexId* end() const { return neighbors + degree; }
  VertexId neighbor(uint32_t i) const { return neighbors[i]; }
};

/// Parsed header of an adjacency file.
struct AdjacencyFileHeader {
  uint64_t num_vertices = 0;
  uint64_t num_directed_edges = 0;  // sum of degrees = 2|E|
  uint32_t flags = 0;
  uint32_t max_degree = 0;

  /// True if the file is degree-sorted.
  bool IsDegreeSorted() const { return (flags & kAdjFlagDegreeSorted) != 0; }
};

/// Per-shard totals recorded in a manifest.
struct ShardInfo {
  uint64_t num_records = 0;
  uint64_t num_directed_edges = 0;
};

/// Manifest of a record store: the global header plus the totals of each
/// shard. A SADJS manifest is stored on disk; a SADJ file has an implicit
/// one-shard manifest holding its header's totals.
struct ShardedAdjacencyManifest {
  /// Global totals and flags (kAdjFlagDegreeSorted refers to the global
  /// record order).
  AdjacencyFileHeader header;
  std::vector<ShardInfo> shards;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards.size()); }
};

/// The record encoder both writers share. Appends records to a file and
/// checks them against the declared totals, so a SADJ file and the shards
/// of a SADJS store hold byte-identical records.
class AdjacencyRecordEncoder {
 public:
  /// Declares the totals the appended records must add up to.
  void Declare(uint64_t num_vertices, uint64_t num_directed_edges,
               uint32_t max_degree);

  /// Checks `id` and `degree` against the declaration, then appends the
  /// record to `out`.
  Status Append(SequentialFileWriter* out, VertexId id,
                const VertexId* neighbors, uint32_t degree);

  /// Checks that exactly the declared vertices and edges were appended.
  Status CheckTotals() const;

 private:
  uint64_t declared_vertices_ = 0;
  uint64_t declared_directed_edges_ = 0;
  uint32_t declared_max_degree_ = 0;
  uint64_t appended_vertices_ = 0;
  uint64_t appended_edges_ = 0;
};

/// Streaming writer. Vertex totals are declared up front so the header can
/// be written once without backwards seeks (the file stays append-only).
class AdjacencyFileWriter {
 public:
  /// `stats` may be null.
  explicit AdjacencyFileWriter(IoStats* stats = nullptr);

  /// Creates `path` and writes the header.
  Status Open(const std::string& path, uint64_t num_vertices,
              uint64_t num_directed_edges, uint32_t max_degree,
              uint32_t flags);

  /// Appends the record for vertex `id`. Every vertex must be appended
  /// exactly once (including degree-0 vertices).
  Status AppendVertex(VertexId id, const VertexId* neighbors, uint32_t degree);

  /// Validates the declared totals and closes the file.
  Status Finish();

 private:
  SequentialFileWriter writer_;
  AdjacencyRecordEncoder encoder_;
};

/// Forward-only reader of one shard: the only record decoder. Each worker
/// of a parallel scan owns one reader (and one IoStats) so no reader
/// state is shared. Every record bumps IoStats::records_decoded; opening
/// a shard does not bump sequential_scans -- a scan is one pass over all
/// shards and is counted by the caller.
class AdjacencyShardReader {
 public:
  /// `stats` may be null.
  explicit AdjacencyShardReader(IoStats* stats = nullptr);

  /// Opens shard `index` of the SADJS store whose manifest lives at
  /// `manifest_path`, validating the shard header against `manifest`.
  Status Open(const std::string& manifest_path,
              const ShardedAdjacencyManifest& manifest, uint32_t index);

  /// Opens `path` and reads its magic into `*magic`. For a SADJ file it
  /// then reads and validates the header, stores the file's implicit
  /// one-shard manifest in `*manifest` and stops at the first record. Any
  /// other magic closes the file and leaves `*manifest` alone, so the
  /// caller can route on it.
  Status OpenFile(const std::string& path, uint32_t* magic,
                  ShardedAdjacencyManifest* manifest);

  /// Reads the next record as a view straight into the file reader's
  /// buffer (SequentialFileReader::Window): nothing is copied, and the
  /// view is valid until the next call on this reader. On any error the
  /// view is left exactly as it was. `*has_next` is false after the last
  /// record, with the view untouched.
  ///
  /// Validation: ids, degrees and neighbor ids are in range, and the
  /// records add up to the manifest's record and directed-edge totals
  /// with no trailing bytes; a truncated or inconsistent shard yields
  /// Corruption, a failed read IOError (never a clean end).
  Status Next(VertexRecordView* view, bool* has_next);

  /// Closes the underlying file. Safe to call twice.
  Status Close();

 private:
  // A record window the file could not fill: a read error, the end of
  // the records, or a record cut short inside its head or neighbors.
  Status ShortRecord(Status window, uint32_t degree, bool* has_next);
  // The end of the records: truncation, trailing bytes and edge totals.
  Status EndOfShard(bool* has_next);
  Status Corrupt(const char* what) const;

  IoStats* stats_;
  SequentialFileReader reader_;
  std::string path_;
  uint64_t num_vertices_ = 0;  // global, for id validation
  uint32_t max_degree_ = 0;
  uint64_t num_records_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t records_seen_ = 0;
  uint64_t edges_seen_ = 0;
};

/// The sequential reader of every store: yields the records of all shards
/// in order, so a SADJ file and a SADJS store of the same graph scan
/// identically. Rewind() restarts a scan; Open and every Rewind bump
/// IoStats::sequential_scans. This is the only iteration primitive the
/// semi-external algorithms get.
class AdjacencyFileScanner {
 public:
  /// `stats` may be null.
  explicit AdjacencyFileScanner(IoStats* stats = nullptr);

  /// Opens the store at `path`, routing on the file's magic: a SADJ file
  /// is read as a one-shard store, a SADM manifest or a SEPR root (see
  /// graph/shard_store.h) as the shards of its serving manifest. Counts
  /// one sequential scan.
  Status Open(const std::string& path);

  /// Global header of the open store.
  const AdjacencyFileHeader& header() const { return manifest_.header; }

  /// Reads the next record in store order, crossing shard boundaries.
  /// `*has_next` is false at the end (`view` is untouched then).
  /// `view->neighbors` points into the scanner until the next call.
  Status Next(VertexRecordView* view, bool* has_next) {
    // Only the last shard's end is the end of the store; a SADJ file has
    // just that one, so its records take the direct call.
    if (shard_ + 1 < manifest_.num_shards()) {
      return NextAcrossShards(view, has_next);
    }
    return reader_.Next(view, has_next);
  }

  /// Restarts the scan from the first record. Counts a sequential scan.
  Status Rewind();

  /// Closes the open file without waiting for the destructor. Used by
  /// callers (e.g. the engine's header probe) that must not keep a file
  /// handle open across a long downstream stage. Safe to call twice.
  Status Close();

 private:
  Status NextAcrossShards(VertexRecordView* view, bool* has_next);

  IoStats* stats_;
  AdjacencyShardReader reader_;
  std::string path_;
  // SADM manifest the shard paths derive from; empty for a SADJ file,
  // whose implicit one-shard manifest holds its header's totals.
  std::string manifest_path_;
  ShardedAdjacencyManifest manifest_;
  uint32_t shard_ = 0;
};

}  // namespace semis

#endif  // SEMIS_GRAPH_ADJACENCY_FILE_H_
