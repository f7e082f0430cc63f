#include "core/swap_candidate_index.h"

#include <algorithm>
#include <cassert>

namespace semis {

uint32_t* FlatU64Map::FindOrInsert(uint64_t key, uint32_t value,
                                   bool* inserted) {
  assert(key != kEmptyKey);
  if (2 * (size_ + 1) > keys_.size()) Grow();
  size_t i = Home(key);
  while (keys_[i] != kEmptyKey) {
    if (keys_[i] == key) {
      *inserted = false;
      return &values_[i];
    }
    i = (i + 1) & mask_;
  }
  keys_[i] = key;
  values_[i] = value;
  size_++;
  *inserted = true;
  return &values_[i];
}

const uint32_t* FlatU64Map::Find(uint64_t key) const {
  if (size_ == 0) return nullptr;
  for (size_t i = Home(key); keys_[i] != kEmptyKey; i = (i + 1) & mask_) {
    if (keys_[i] == key) return &values_[i];
  }
  return nullptr;
}

void FlatU64Map::Clear() {
  if (size_ == 0) return;
  std::fill(keys_.begin(), keys_.end(), kEmptyKey);
  size_ = 0;
}

void FlatU64Map::Grow() {
  std::vector<uint64_t> old_keys = std::move(keys_);
  std::vector<uint32_t> old_values = std::move(values_);
  const size_t capacity = old_keys.empty() ? 16 : 2 * old_keys.size();
  keys_.assign(capacity, kEmptyKey);
  values_.assign(capacity, 0);
  mask_ = capacity - 1;
  shift_ = 64 - __builtin_ctzll(capacity);
  size_ = 0;
  bool inserted = false;
  for (size_t i = 0; i < old_keys.size(); ++i) {
    if (old_keys[i] != kEmptyKey) {
      FindOrInsert(old_keys[i], old_values[i], &inserted);
    }
  }
}

SwapCandidateIndex::Bucket& SwapCandidateIndex::FindOrAddBucket(VertexId w1,
                                                                VertexId w2) {
  const uint32_t next = static_cast<uint32_t>(buckets_.size());
  bool inserted = false;
  const uint32_t b =
      *bucket_of_key_.FindOrInsert(PairKey(w1, w2), next, &inserted);
  if (inserted) {
    buckets_.push_back(Bucket{std::min(w1, w2), std::max(w1, w2), kNil, kNil,
                              kNil, kNil, 0, false});
    AppendKey(w1, b);
    AppendKey(w2, b);
  }
  return buckets_[b];
}

void SwapCandidateIndex::AppendKey(VertexId w, uint32_t bucket) {
  bool inserted = false;
  const uint32_t list = *list_of_vertex_.FindOrInsert(
      w, static_cast<uint32_t>(key_lists_.size()), &inserted);
  if (inserted) key_lists_.push_back(ListEnds{kNil, kNil});
  ListEnds& ends = key_lists_[list];
  Append(&key_entries_, &ends.head, &ends.tail, Link{bucket, kNil});
}

void SwapCandidateIndex::Clear() {
  bucket_of_key_.Clear();
  list_of_vertex_.Clear();
  buckets_.clear();
  anchors_.clear();
  pairs_.clear();
  key_entries_.clear();
  key_lists_.clear();
}

size_t SwapCandidateIndex::MemoryBytes() const {
  return bucket_of_key_.MemoryBytes() + list_of_vertex_.MemoryBytes() +
         buckets_.capacity() * sizeof(Bucket) +
         anchors_.capacity() * sizeof(Link) +
         pairs_.capacity() * sizeof(PairLink) +
         key_entries_.capacity() * sizeof(Link) +
         key_lists_.capacity() * sizeof(ListEnds);
}

}  // namespace semis
