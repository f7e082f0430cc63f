// U64HashSet (util/u64_hash_set.h) against std::unordered_set on random
// insert/erase churn, including the wrap-around and backward-shift paths
// of deletion in a small, crowded table.
#include <gtest/gtest.h>

#include <unordered_set>

#include "util/random.h"
#include "util/u64_hash_set.h"

namespace semis {
namespace {

TEST(U64HashSetTest, MatchesUnorderedSetUnderChurn) {
  for (uint64_t key_space : {8u, 64u, 5000u}) {
    U64HashSet set;
    std::unordered_set<uint64_t> model;
    Random rng(key_space);
    for (int step = 0; step < 20000; ++step) {
      // Keys spread over the whole u64 range, like packed edge keys.
      const uint64_t key = rng.Uniform(key_space) * 0x100000001ULL;
      if (rng.OneIn(0.5)) {
        ASSERT_EQ(set.Insert(key), model.insert(key).second);
      } else {
        ASSERT_EQ(set.Erase(key), model.erase(key) == 1);
      }
      ASSERT_EQ(set.size(), model.size());
      if (step % 97 == 0) {
        for (uint64_t k = 0; k < key_space; ++k) {
          const uint64_t probe = k * 0x100000001ULL;
          ASSERT_EQ(set.Contains(probe), model.count(probe) == 1)
              << "key space " << key_space << " step " << step;
        }
      }
    }
  }
}

TEST(U64HashSetTest, ClearReleasesTheTable) {
  U64HashSet set;
  EXPECT_FALSE(set.Contains(7));
  EXPECT_FALSE(set.Erase(7));
  EXPECT_EQ(set.MemoryBytes(), 0u);
  for (uint64_t k = 0; k < 100; ++k) ASSERT_TRUE(set.Insert(k));
  EXPECT_GE(set.MemoryBytes(), 200 * sizeof(uint64_t));
  EXPECT_TRUE(set.Contains(99));
  set.Clear();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_EQ(set.MemoryBytes(), 0u);
  EXPECT_FALSE(set.Contains(99));
  EXPECT_TRUE(set.Insert(99));
}

}  // namespace
}  // namespace semis
