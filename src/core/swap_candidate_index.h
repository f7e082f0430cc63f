// Copyright (c) the semis authors.
// The swap-candidate (SC) index of Algorithm 4, shared by the sequential
// two-k swap and the parallel swap executor.
//
// For every IS pair (w1, w2) with a live anchor (an A vertex whose ISN is
// exactly {w1, w2}), SC(w1, w2) is a bucket holding the pair's anchors
// and its candidate pairs (Definition 2). For every IS vertex w, a key list
// names the buckets containing w in creation order, so a single-ISN vertex
// can pair with an earlier anchor of any bucket through w, and a 2-3 swap
// skeleton (Definition 3) can be found from the vertex in hand.
//
// Layout: one open-addressed table maps pair key -> bucket index, a second
// maps IS vertex -> key list. Anchors, pairs and key-list entries live in
// slabs, each list threaded through its slab by `next` links in insertion
// order, so every partner search and skeleton walk visits entries in the
// order they were added. Clear() empties everything but keeps capacity:
// an index reused scan after scan allocates nothing once warm.
//
// The index only knows the bucket rules. Which IS vertices are still live
// and which vertices may still join a swap is the caller's state, passed
// in as predicates.
#ifndef SEMIS_CORE_SWAP_CANDIDATE_INDEX_H_
#define SEMIS_CORE_SWAP_CANDIDATE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/common.h"

namespace semis {

/// Maps 64-bit keys (never ~0) to 32-bit values: linear probing at a load
/// factor of at most 1/2, no deletion. Clear() keeps the table.
class FlatU64Map {
 public:
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// The value slot of `key`, inserting `value` when absent.
  uint32_t* FindOrInsert(uint64_t key, uint32_t value, bool* inserted);
  /// The value of `key`, or nullptr when absent.
  const uint32_t* Find(uint64_t key) const;

  /// Empties the map; the table keeps its size.
  void Clear();
  size_t size() const { return size_; }
  size_t MemoryBytes() const {
    return keys_.capacity() * sizeof(uint64_t) +
           values_.capacity() * sizeof(uint32_t);
  }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }
  void Grow();

  std::vector<uint64_t> keys_;
  std::vector<uint32_t> values_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

/// SC buckets and per-IS-vertex key lists of one pre-swap scan.
class SwapCandidateIndex {
 public:
  /// A fired 2-3 swap skeleton: (v1, v2, u) replace (w1, w2).
  struct Skeleton {
    VertexId v1 = kInvalidVertex;
    VertexId v2 = kInvalidVertex;
    VertexId w1 = kInvalidVertex;
    VertexId w2 = kInvalidVertex;
  };

  /// Algorithm 4 lines 1-2 for the A vertex `u` in hand, whose ISN is
  /// {w1, w2} (w2 == kInvalidVertex for a single). An anchor with both IS
  /// vertices live registers in SC(w1, w2) and, while the bucket holds
  /// fewer than `max_pairs` pairs, pairs with the first earlier anchor
  /// `v` of the bucket with `can_join(v)`. A single with a live w1 pairs with
  /// the first such anchor of the first bucket containing w1 that is not
  /// freed and not full; singles are never registered themselves. Returns
  /// true when u entered SC (Lemma 6's |SC| counts it).
  ///
  /// `live(w)`: IS vertex w is still in the set. `can_join(v)`: vertex v
  /// may still join a swap and is not adjacent to u. Neither is asked
  /// about u.
  template <typename LiveFn, typename JoinFn>
  bool Register(VertexId u, VertexId w1, VertexId w2, uint32_t max_pairs,
                LiveFn&& live, JoinFn&& can_join);

  /// Algorithm 4 lines 5-8: finds the first pair (v1, v2), over the
  /// buckets u can complete, such that both pair members `can_join` and
  /// both IS vertices of the bucket are `live`; an anchor looks only in
  /// SC(w1, w2) (when both are live), a single in every bucket containing
  /// w1. Frees that bucket and returns true with the skeleton in `out`.
  template <typename LiveFn, typename JoinFn>
  bool TakeSkeleton(VertexId u, VertexId w1, VertexId w2, LiveFn&& live,
                    JoinFn&& can_join, Skeleton* out);

  /// Empties the index; every table and slab keeps its capacity.
  void Clear();

  /// Bytes the index holds, including retained capacity.
  size_t MemoryBytes() const;

 private:
  static constexpr uint32_t kNil = ~uint32_t{0};

  struct Bucket {
    VertexId w1;  // w1 < w2
    VertexId w2;
    uint32_t first_anchor;
    uint32_t last_anchor;
    uint32_t first_pair;
    uint32_t last_pair;
    uint32_t num_pairs;
    bool freed;
  };
  // One slab entry of a singly linked list: a vertex (anchors) or a
  // bucket index (key lists).
  struct Link {
    uint32_t value;
    uint32_t next;
  };
  struct PairLink {
    VertexId anchor;
    VertexId partner;
    uint32_t next;
  };
  struct ListEnds {
    uint32_t head;
    uint32_t tail;
  };

  static uint64_t PairKey(VertexId a, VertexId b) {
    if (a > b) std::swap(a, b);
    return (static_cast<uint64_t>(a) << 32) | b;
  }

  // The bucket of (w1, w2), created (and listed under both IS vertices)
  // on first use.
  Bucket& FindOrAddBucket(VertexId w1, VertexId w2);
  void AppendKey(VertexId w, uint32_t bucket);

  // Appends `entry` to the list [*first .. *last] threaded through `slab`.
  template <typename Entry>
  static void Append(std::vector<Entry>* slab, uint32_t* first,
                     uint32_t* last, const Entry& entry) {
    const uint32_t i = static_cast<uint32_t>(slab->size());
    slab->push_back(entry);
    if (*first == kNil) {
      *first = i;
    } else {
      (*slab)[*last].next = i;
    }
    *last = i;
  }

  // First anchor v != u of `bucket` with can_join(v), or kInvalidVertex.
  template <typename JoinFn>
  VertexId FindPartner(const Bucket& bucket, VertexId u,
                       JoinFn&& can_join) const {
    for (uint32_t i = bucket.first_anchor; i != kNil; i = anchors_[i].next) {
      const VertexId v = anchors_[i].value;
      if (v != u && can_join(v)) return v;
    }
    return kInvalidVertex;
  }

  // Fires the first usable pair of `bucket`; see TakeSkeleton.
  template <typename LiveFn, typename JoinFn>
  bool TryBucket(uint32_t b, VertexId u, LiveFn&& live, JoinFn&& can_join,
                 Skeleton* out);

  FlatU64Map bucket_of_key_;
  FlatU64Map list_of_vertex_;
  std::vector<Bucket> buckets_;
  std::vector<Link> anchors_;
  std::vector<PairLink> pairs_;
  std::vector<Link> key_entries_;
  std::vector<ListEnds> key_lists_;
};

template <typename LiveFn, typename JoinFn>
bool SwapCandidateIndex::Register(VertexId u, VertexId w1, VertexId w2,
                                  uint32_t max_pairs, LiveFn&& live,
                                  JoinFn&& can_join) {
  if (w2 != kInvalidVertex) {
    if (!live(w1) || !live(w2)) return false;
    Bucket& bucket = FindOrAddBucket(w1, w2);
    if (bucket.num_pairs < max_pairs) {
      const VertexId partner = FindPartner(bucket, u, can_join);
      if (partner != kInvalidVertex) {
        Append(&pairs_, &bucket.first_pair, &bucket.last_pair,
               PairLink{u, partner, kNil});
        bucket.num_pairs++;
      }
    }
    Append(&anchors_, &bucket.first_anchor, &bucket.last_anchor,
           Link{u, kNil});
    return true;
  }
  if (!live(w1)) return false;
  const uint32_t* list = list_of_vertex_.Find(w1);
  if (list == nullptr) return false;
  for (uint32_t e = key_lists_[*list].head; e != kNil;
       e = key_entries_[e].next) {
    Bucket& bucket = buckets_[key_entries_[e].value];
    if (bucket.freed || bucket.num_pairs >= max_pairs) continue;
    const VertexId partner = FindPartner(bucket, u, can_join);
    if (partner != kInvalidVertex) {
      Append(&pairs_, &bucket.first_pair, &bucket.last_pair,
             PairLink{partner, u, kNil});  // anchor first
      bucket.num_pairs++;
      return true;
    }
  }
  return false;
}

template <typename LiveFn, typename JoinFn>
bool SwapCandidateIndex::TakeSkeleton(VertexId u, VertexId w1, VertexId w2,
                                      LiveFn&& live, JoinFn&& can_join,
                                      Skeleton* out) {
  if (w2 != kInvalidVertex) {
    if (!live(w1) || !live(w2)) return false;
    const uint32_t* b = bucket_of_key_.Find(PairKey(w1, w2));
    return b != nullptr && TryBucket(*b, u, live, can_join, out);
  }
  const uint32_t* list = list_of_vertex_.Find(w1);
  if (list == nullptr) return false;
  for (uint32_t e = key_lists_[*list].head; e != kNil;
       e = key_entries_[e].next) {
    if (TryBucket(key_entries_[e].value, u, live, can_join, out)) return true;
  }
  return false;
}

template <typename LiveFn, typename JoinFn>
bool SwapCandidateIndex::TryBucket(uint32_t b, VertexId u, LiveFn&& live,
                                   JoinFn&& can_join, Skeleton* out) {
  Bucket& bucket = buckets_[b];
  if (bucket.freed || !live(bucket.w1) || !live(bucket.w2)) return false;
  for (uint32_t i = bucket.first_pair; i != kNil; i = pairs_[i].next) {
    const VertexId v1 = pairs_[i].anchor;
    const VertexId v2 = pairs_[i].partner;
    if (v1 == u || v2 == u || !can_join(v1) || !can_join(v2)) continue;
    bucket.freed = true;  // Algorithm 4 line 8
    *out = Skeleton{v1, v2, bucket.w1, bucket.w2};
    return true;
  }
  return false;
}

}  // namespace semis

#endif  // SEMIS_CORE_SWAP_CANDIDATE_INDEX_H_
