#include "core/edge_delta_state.h"

namespace semis {

void EdgeDeltaState::Reset(uint64_t n) {
  head_.assign(n, kNil);
  std::vector<Node>().swap(nodes_);
  free_pair_ = kNil;
  num_inserted_ = 0;
  deleted_.Clear();
  has_deleted_.Resize(n);
}

bool EdgeDeltaState::Apply(EdgeDeltaOp op, VertexId u, VertexId v) {
  if (op == EdgeDeltaOp::kInsert) {
    if (!Insert(u, v)) return false;  // already live in the delta
    deleted_.Erase(EdgeKey(u, v));
    return true;
  }
  if (!deleted_.Insert(EdgeKey(u, v))) return false;
  has_deleted_.Set(u);
  has_deleted_.Set(v);
  Erase(u, v);
  return true;
}

uint32_t EdgeDeltaState::FindNode(VertexId u, VertexId v) const {
  // The edge sits in both lists, so whichever list reaches it first (or
  // runs out first, proving it absent) settles the lookup.
  uint32_t a = head_[u];
  uint32_t b = head_[v];
  while (a != kNil && b != kNil) {
    if (nodes_[a].neighbor == v) return a;
    if (nodes_[b].neighbor == u) return b;
    a = nodes_[a].next;
    b = nodes_[b].next;
  }
  return kNil;
}

void EdgeDeltaState::Link(VertexId owner, uint32_t node) {
  nodes_[node].prev = kNil;
  nodes_[node].next = head_[owner];
  if (head_[owner] != kNil) nodes_[head_[owner]].prev = node;
  head_[owner] = node;
}

void EdgeDeltaState::Unlink(uint32_t node) {
  // A node's owner is what its twin points at.
  const VertexId owner = nodes_[node ^ 1u].neighbor;
  const Node& n = nodes_[node];
  if (n.prev != kNil) {
    nodes_[n.prev].next = n.next;
  } else {
    head_[owner] = n.next;
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
}

bool EdgeDeltaState::Insert(VertexId u, VertexId v) {
  if (FindNode(u, v) != kNil) return false;
  uint32_t pair = free_pair_;
  if (pair != kNil) {
    free_pair_ = nodes_[pair].next;
  } else {
    pair = static_cast<uint32_t>(nodes_.size());
    nodes_.resize(nodes_.size() + 2);
  }
  nodes_[pair].neighbor = v;
  nodes_[pair + 1].neighbor = u;
  Link(u, pair);
  Link(v, pair + 1);
  num_inserted_++;
  return true;
}

void EdgeDeltaState::Erase(VertexId u, VertexId v) {
  const uint32_t node = FindNode(u, v);
  if (node == kNil) return;
  const uint32_t pair = node & ~1u;
  Unlink(pair);
  Unlink(pair + 1);
  nodes_[pair].next = free_pair_;
  free_pair_ = pair;
  num_inserted_--;
}

size_t EdgeDeltaState::MemoryBytes() const {
  return head_.capacity() * sizeof(uint32_t) +
         nodes_.capacity() * sizeof(Node) + has_deleted_.MemoryBytes() +
         deleted_.MemoryBytes();
}

}  // namespace semis
