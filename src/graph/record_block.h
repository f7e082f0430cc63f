// Copyright (c) the semis authors.
// Arena-backed vertex-record blocks: the in-memory decode unit of the
// sharded pipelines. A decoder fills one flat uint32 arena plus a compact
// per-record index (vertex id, degree, neighbor span offset); consumers
// read records through VertexRecordView, a span into the arena, so the
// decode hot path performs zero per-record heap allocation. Blocks are
// recycled through RecordBlockPool -- vectors keep their capacity across
// Clear(), so steady-state decode allocates nothing at all.
//
// Capacity is measured in payload bytes, not records: a block is "full"
// when its payload reaches the configured block size, but a single record
// larger than the block size still fits (the arena grows for it), so any
// block geometry can represent any record. See docs/formats.md, "In-memory
// block pipeline".
#ifndef SEMIS_GRAPH_RECORD_BLOCK_H_
#define SEMIS_GRAPH_RECORD_BLOCK_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/common.h"
#include "util/thread_annotations.h"

namespace semis {

/// Default payload capacity of one decode block (see BlockRingOptions).
inline constexpr size_t kDefaultDecodeBlockBytes = 256 * 1024;

/// One vertex record viewed inside a block: `neighbors` points into the
/// block's arena and stays valid until the block is cleared or released.
struct VertexRecordView {
  VertexId id = 0;
  uint32_t degree = 0;
  const VertexId* neighbors = nullptr;

  const VertexId* begin() const { return neighbors; }
  const VertexId* end() const { return neighbors + degree; }
  VertexId neighbor(uint32_t i) const { return neighbors[i]; }
};

/// A batch of decoded records backed by one flat arena.
///
/// Writing protocol: BeginRecord reserves arena space for the neighbors
/// and returns the destination pointer; the caller either CommitRecord()s
/// after filling (and validating) it, or AbandonRecord()s to roll the
/// arena back, so a failed decode never leaves a half-record behind.
/// At most one record may be staged at a time. Not thread-safe; a block
/// is owned by exactly one thread at a time (decoder, then consumer).
class RecordBlock {
 public:
  RecordBlock() = default;
  RecordBlock(RecordBlock&&) = default;
  RecordBlock& operator=(RecordBlock&&) = default;
  RecordBlock(const RecordBlock&) = delete;
  RecordBlock& operator=(const RecordBlock&) = delete;

  /// Stages a record and returns the arena slot for its `degree`
  /// neighbors: valid for exactly `degree` writes. For degree 0 the
  /// pointer must not be dereferenced (and may be null on a block whose
  /// arena never grew).
  VertexId* BeginRecord(VertexId id, uint32_t degree);

  /// Makes the staged record visible to view().
  void CommitRecord();

  /// Drops the staged record and rolls the arena back.
  void AbandonRecord();

  /// Number of committed records.
  size_t num_records() const { return index_.size(); }
  bool empty() const { return index_.empty(); }

  /// View of committed record `i` (valid until Clear / move).
  VertexRecordView view(size_t i) const {
    const Entry& e = index_[i];
    return VertexRecordView{e.id, e.degree, arena_.data() + e.offset};
  }

  /// Committed payload bytes (arena words + index entries) -- what the
  /// block ring's back-pressure is measured in.
  size_t payload_bytes() const {
    return arena_size_ * sizeof(VertexId) + index_.size() * sizeof(Entry);
  }

  /// Allocated capacity in bytes (arena + index). Monotone over a block's
  /// lifetime; the pool sums this for the `arena_bytes` statistic.
  size_t capacity_bytes() const {
    return arena_.capacity() * sizeof(VertexId) +
           index_.capacity() * sizeof(Entry);
  }

  /// Forgets all records, keeping the allocated capacity.
  void Clear();

 private:
  struct Entry {
    VertexId id;
    uint32_t degree;
    size_t offset;  // neighbor span start, in arena words
  };

  // arena_size_ tracks the committed prefix of arena_; the vector itself
  // only ever grows (resize would value-initialize, so growth goes
  // through EnsureArenaCapacity instead).
  std::vector<VertexId> arena_;
  size_t arena_size_ = 0;
  std::vector<Entry> index_;
  Entry staged_{};
  bool staging_ = false;
};

/// Free list of RecordBlocks shared by the decoder threads and the
/// consumer of one block ring. Thread-safe. Released blocks keep their
/// capacity, so steady-state Acquire/Release cycles allocate nothing.
class RecordBlockPool {
 public:
  RecordBlockPool() = default;
  RecordBlockPool(const RecordBlockPool&) = delete;
  RecordBlockPool& operator=(const RecordBlockPool&) = delete;

  /// Pops a pooled block (cleared, capacity retained) or creates a fresh
  /// empty one when the pool is dry.
  RecordBlock Acquire() EXCLUDES(mu_);

  /// Clears `block` and returns it to the free list.
  void Release(RecordBlock&& block) EXCLUDES(mu_);

  /// Blocks created because the pool was dry (the allocation count of the
  /// block layer: in steady state this stops growing).
  uint64_t blocks_created() const EXCLUDES(mu_);

  /// Total allocated capacity of the blocks currently in the free list.
  /// After a drained scan returned every block, this is the arena
  /// footprint of the whole ring.
  size_t pooled_capacity_bytes() const EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  std::vector<RecordBlock> free_ GUARDED_BY(mu_);
  uint64_t blocks_created_ GUARDED_BY(mu_) = 0;
};

}  // namespace semis

#endif  // SEMIS_GRAPH_RECORD_BLOCK_H_
