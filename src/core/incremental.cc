#include "core/incremental.h"

#include "graph/adjacency_file.h"

namespace semis {

Status IncrementalMis::Initialize(const std::string& adjacency_path,
                                  const BitVector& initial_set) {
  AdjacencyFileScanner scanner(nullptr);
  SEMIS_RETURN_IF_ERROR(scanner.Open(adjacency_path));
  if (scanner.header().num_vertices != initial_set.size()) {
    return Status::InvalidArgument("set size != graph vertex count");
  }
  path_ = adjacency_path;
  n_ = scanner.header().num_vertices;
  set_ = initial_set;
  set_size_ = set_.Count();
  inserted_.clear();
  deleted_.clear();
  inserted_adj_.clear();
  updates_ = 0;
  pending_evictions_ = 0;
  return Status::OK();
}

Status IncrementalMis::InsertEdge(VertexId u, VertexId v) {
  if (u == v) return Status::InvalidArgument("self-loop insertion");
  if (u >= n_ || v >= n_) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const uint64_t key = EdgeKey(u, v);
  updates_++;
  // Record every insert in the delta, whether or not the base file also
  // holds the edge -- without scanning the base we cannot know, and a
  // delta insert overlapping a live base edge is harmless (Repair treats
  // (base \ deleted) + inserted as the effective edge set). What is NOT
  // harmless is assuming an insert that cancels a pending delete must be
  // a base edge: if the delete itself followed a duplicate insert of a
  // base edge, that assumption silently dropped the edge from the delta.
  deleted_.erase(key);
  if (inserted_.insert(key).second) {
    inserted_adj_[u].push_back(v);
    inserted_adj_[v].push_back(u);
  }
  // Eager independence maintenance.
  if (set_.Test(u) && set_.Test(v)) {
    const VertexId evicted = u > v ? u : v;
    set_.Clear(evicted);
    set_size_--;
    pending_evictions_++;
  }
  return Status::OK();
}

Status IncrementalMis::DeleteEdge(VertexId u, VertexId v) {
  if (u == v) return Status::InvalidArgument("self-loop deletion");
  if (u >= n_ || v >= n_) {
    return Status::InvalidArgument("vertex id out of range");
  }
  const uint64_t key = EdgeKey(u, v);
  updates_++;
  if (inserted_.erase(key) > 0) {
    // Remove from the delta adjacency (swap-erase).
    for (VertexId a : {u, v}) {
      VertexId b = (a == u) ? v : u;
      auto& vec = inserted_adj_[a];
      for (size_t i = 0; i < vec.size(); ++i) {
        if (vec[i] == b) {
          vec[i] = vec.back();
          vec.pop_back();
          break;
        }
      }
    }
  }
  // Always record the delete. If the base file also holds this edge --
  // possible even when the delete cancels a delta insert, because inserts
  // may duplicate base edges -- the entry masks the base copy during
  // Repair's merge scan; when the base does not hold it, the entry is
  // inert. Dropping it only when the delta insert existed double-counted
  // duplicate inserts and left the base copy alive after its deletion.
  deleted_.insert(key);
  // A deletion can only open a maximality gap; Repair() closes it.
  return Status::OK();
}

Status IncrementalMis::Repair() {
  AdjacencyFileScanner scanner(nullptr);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path_));
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    const VertexId u = rec.id;
    if (set_.Test(u)) continue;
    bool has_set_neighbor = false;
    for (uint32_t i = 0; i < rec.degree && !has_set_neighbor; ++i) {
      const VertexId nb = rec.neighbors[i];
      if (set_.Test(nb) && deleted_.find(EdgeKey(u, nb)) == deleted_.end()) {
        has_set_neighbor = true;
      }
    }
    if (!has_set_neighbor) {
      auto it = inserted_adj_.find(u);
      if (it != inserted_adj_.end()) {
        for (VertexId nb : it->second) {
          if (set_.Test(nb)) {
            has_set_neighbor = true;
            break;
          }
        }
      }
    }
    if (!has_set_neighbor) {
      // Adding in scan order keeps independence: later vertices observe
      // this addition through set_.
      set_.Set(u);
      set_size_++;
    }
  }
  pending_evictions_ = 0;
  return Status::OK();
}

}  // namespace semis
