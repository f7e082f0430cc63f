// Copyright (c) the semis authors.
// The in-memory effective edge delta of a streaming session
// (core/incremental_stream.h): which edges are inserted and which are
// deleted relative to the base graph, as of the last applied update. The
// effective graph is (base \ deleted) + inserted. Same conventions as
// IncrementalMis: an inserted edge may duplicate a base edge, and a
// deleted key may name an edge the base never had (inert there).
//
// The state is kept current update by update, so readers -- the repair
// merge scan and compaction -- probe it in O(1) per base neighbor instead
// of rebuilding anything from the logs:
//
//   * inserted edges form an adjacency over one flat node slab: edge i
//     owns nodes 2i (in u's list, pointing at v) and 2i+1 (in v's list,
//     pointing at u), threaded into per-vertex doubly linked lists. A
//     lookup walks both endpoint lists in lockstep, so it costs
//     O(min(deg_u, deg_v)) inserted neighbors, and removal unlinks both
//     nodes in O(1). Freed pairs are recycled through a free list.
//   * deleted keys live in a flat hash set, gated by an O(|V|)-bit "has a
//     deleted incident edge" vector so records far from any delete never
//     probe it. The gate is conservative: a re-insert does not clear it;
//     Reset (and therefore every rebuild) does.
//
// Memory: 4 bytes per vertex for the list heads, |V| bits for the gate,
// 24 bytes per live inserted edge and 8 to 16 bytes per deleted key -- the
// semi-external O(|V|) + O(delta) bound.
#ifndef SEMIS_CORE_EDGE_DELTA_STATE_H_
#define SEMIS_CORE_EDGE_DELTA_STATE_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "io/edge_delta_file.h"
#include "util/bit_vector.h"
#include "util/common.h"
#include "util/u64_hash_set.h"

namespace semis {

class EdgeDeltaState {
 public:
  /// Live inserted edges the 32-bit node indices can address.
  static constexpr uint64_t kMaxInsertedEdges = (1ull << 31) - 1;

  /// Drops every entry (releasing the slab) and sizes the state for
  /// vertex ids in [0, n).
  void Reset(uint64_t n);

  /// Applies one update: an insert makes the edge live and cancels a
  /// pending delete of it; a delete records the key and removes a live
  /// insert of it. Returns false when the update changed nothing (insert
  /// of a live inserted edge, delete of an already deleted key). At most
  /// kMaxInsertedEdges inserted edges may be live.
  bool Apply(EdgeDeltaOp op, VertexId u, VertexId v);

  /// True when the delta masks edge (u, v) of the base graph.
  bool IsDeleted(VertexId u, VertexId v) const {
    return has_deleted_.Test(u) && has_deleted_.Test(v) &&
           deleted_.Contains(EdgeKey(u, v));
  }

  /// True when some inserted neighbor `nb` of `u` satisfies `pred(nb)`.
  template <typename Pred>
  bool AnyInsertedNeighbor(VertexId u, Pred&& pred) const {
    for (uint32_t i = head_[u]; i != kNil; i = nodes_[i].next) {
      if (pred(nodes_[i].neighbor)) return true;
    }
    return false;
  }

  /// Appends the inserted neighbors of `u` to `out`, in no fixed order.
  void AppendInsertedNeighbors(VertexId u, std::vector<VertexId>* out) const {
    for (uint32_t i = head_[u]; i != kNil; i = nodes_[i].next) {
      out->push_back(nodes_[i].neighbor);
    }
  }

  /// Live inserted edges.
  uint64_t num_inserted() const { return num_inserted_; }

  /// Heap bytes held: list heads, node slab, gate bits and the deleted-key
  /// table.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Node {
    VertexId neighbor = 0;
    uint32_t prev = kNil;
    uint32_t next = kNil;
  };

  // Never U64HashSet::kEmptyKey: the smaller id fills the high half.
  static uint64_t EdgeKey(VertexId u, VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  // A node of edge (u, v) -- in u's or in v's list -- or kNil.
  uint32_t FindNode(VertexId u, VertexId v) const;
  void Link(VertexId owner, uint32_t node);
  void Unlink(uint32_t node);
  bool Insert(VertexId u, VertexId v);
  void Erase(VertexId u, VertexId v);

  // First node of each vertex's inserted list, kNil when empty.
  std::vector<uint32_t> head_;
  std::vector<Node> nodes_;
  // Head of the free pair list, threaded through nodes_[2i].next.
  uint32_t free_pair_ = kNil;
  uint64_t num_inserted_ = 0;
  U64HashSet deleted_;
  // Bit v is set when some key in deleted_ has endpoint v.
  BitVector has_deleted_;
};

}  // namespace semis

#endif  // SEMIS_CORE_EDGE_DELTA_STATE_H_
