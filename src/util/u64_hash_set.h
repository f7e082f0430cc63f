// Copyright (c) the semis authors.
// Flat hash set of 64-bit keys: open addressing with linear probing and
// backward-shift deletion (no tombstones), so a lookup touches one cache
// line in the common case and the table stays 8 bytes per slot at a load
// factor of at most 1/2. Used for the streaming delta's deleted-edge keys,
// which the repair scan probes once per candidate base edge, and for the
// parallel swap executor's per-shard removed and used vertices.
#ifndef SEMIS_UTIL_U64_HASH_SET_H_
#define SEMIS_UTIL_U64_HASH_SET_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace semis {

class U64HashSet {
 public:
  /// The one key the set cannot hold (it marks empty slots).
  static constexpr uint64_t kEmptyKey = ~uint64_t{0};

  /// Adds `key`; false when it was already present.
  bool Insert(uint64_t key) {
    assert(key != kEmptyKey);
    if (2 * (size_ + 1) > slots_.size()) Grow();
    size_t i = Home(key);
    while (slots_[i] != kEmptyKey) {
      if (slots_[i] == key) return false;
      i = (i + 1) & mask_;
    }
    slots_[i] = key;
    size_++;
    return true;
  }

  /// True when `key` is present.
  bool Contains(uint64_t key) const {
    if (size_ == 0) return false;
    for (size_t i = Home(key); slots_[i] != kEmptyKey; i = (i + 1) & mask_) {
      if (slots_[i] == key) return true;
    }
    return false;
  }

  /// Removes `key`; false when it was absent.
  bool Erase(uint64_t key) {
    if (size_ == 0) return false;
    size_t hole = Home(key);
    while (slots_[hole] != key) {
      if (slots_[hole] == kEmptyKey) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull later members of the probe run into the hole
    // unless their home lies cyclically in (hole, j].
    for (size_t j = (hole + 1) & mask_; slots_[j] != kEmptyKey;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j]);
      const bool stays = hole < j ? (hole < home && home <= j)
                                  : (hole < home || home <= j);
      if (!stays) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = kEmptyKey;
    size_--;
    return true;
  }

  size_t size() const { return size_; }

  /// Empties the set but keeps its table, so refilling it to the same
  /// size allocates nothing.
  void Reset() {
    if (size_ == 0) return;
    std::fill(slots_.begin(), slots_.end(), kEmptyKey);
    size_ = 0;
  }

  /// Empties the set and releases its table.
  void Clear() {
    std::vector<uint64_t>().swap(slots_);
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
  }

  /// Bytes of the slot table.
  size_t MemoryBytes() const { return slots_.capacity() * sizeof(uint64_t); }

 private:
  // Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >> shift_);
  }

  void Grow() {
    std::vector<uint64_t> old = std::move(slots_);
    const size_t capacity = old.empty() ? 16 : 2 * old.size();
    slots_.assign(capacity, kEmptyKey);
    mask_ = capacity - 1;
    shift_ = 64 - __builtin_ctzll(capacity);
    size_ = 0;
    for (uint64_t key : old) {
      if (key != kEmptyKey) Insert(key);
    }
  }

  std::vector<uint64_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace semis

#endif  // SEMIS_UTIL_U64_HASH_SET_H_
