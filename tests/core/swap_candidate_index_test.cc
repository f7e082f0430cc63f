#include "core/swap_candidate_index.h"

#include <gtest/gtest.h>

#include <vector>

namespace semis {
namespace {

auto AllLive() {
  return [](VertexId) { return true; };
}

// A can_join predicate that refuses everyone and records whom it was
// asked about, in order: the visit order of a partner search.
struct Recorder {
  std::vector<VertexId>* seen;
  bool operator()(VertexId v) const {
    seen->push_back(v);
    return false;
  }
};

TEST(FlatU64MapTest, InsertFindAndGrowKeepValues) {
  FlatU64Map map;
  EXPECT_EQ(map.Find(7), nullptr);
  for (uint64_t k = 0; k < 5000; ++k) {
    bool inserted = false;
    map.FindOrInsert(k * 1000003, static_cast<uint32_t>(k), &inserted);
    EXPECT_TRUE(inserted);
  }
  EXPECT_EQ(map.size(), 5000u);
  for (uint64_t k = 0; k < 5000; ++k) {
    const uint32_t* v = map.Find(k * 1000003);
    ASSERT_NE(v, nullptr) << k;
    EXPECT_EQ(*v, k);
  }
  bool inserted = true;
  EXPECT_EQ(*map.FindOrInsert(3 * 1000003, 99, &inserted), 3u);
  EXPECT_FALSE(inserted);
  EXPECT_EQ(map.Find(1), nullptr);
}

TEST(FlatU64MapTest, ClearKeepsTheTable) {
  FlatU64Map map;
  bool inserted = false;
  for (uint64_t k = 0; k < 100; ++k) map.FindOrInsert(k, 1, &inserted);
  const size_t bytes = map.MemoryBytes();
  map.Clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.Find(5), nullptr);
  EXPECT_EQ(map.MemoryBytes(), bytes);
  for (uint64_t k = 0; k < 100; ++k) map.FindOrInsert(k + 500, 2, &inserted);
  EXPECT_EQ(map.MemoryBytes(), bytes);
  EXPECT_EQ(*map.Find(550), 2u);
}

TEST(SwapCandidateIndexTest, AnchorPairsWithFirstFreeEarlierAnchor) {
  SwapCandidateIndex sc;
  auto free_except_11 = [](VertexId v) { return v != 11; };
  // Anchors 10, 11, 12 of SC(1, 2) arrive in that order: 10 finds no
  // earlier anchor, 11 pairs with 10, and 12 pairs with 10 too (the first
  // free earlier anchor; 11 is not free).
  EXPECT_TRUE(sc.Register(10, 1, 2, 64, AllLive(), free_except_11));
  EXPECT_TRUE(sc.Register(11, 2, 1, 64, AllLive(), free_except_11));
  EXPECT_TRUE(sc.Register(12, 1, 2, 64, AllLive(), free_except_11));
  // Vertex 13 completes the first pair whose members are both free.
  SwapCandidateIndex::Skeleton sk;
  ASSERT_TRUE(sc.TakeSkeleton(13, 1, 2, AllLive(), free_except_11, &sk));
  EXPECT_EQ(sk.v1, 12u);  // pair (11, 10) is skipped: 11 is not free
  EXPECT_EQ(sk.v2, 10u);
  EXPECT_EQ(sk.w1, 1u);
  EXPECT_EQ(sk.w2, 2u);
  // The bucket is freed (Algorithm 4 line 8): no second skeleton.
  EXPECT_FALSE(sc.TakeSkeleton(14, 1, 2, AllLive(), AllLive(), &sk));
}

TEST(SwapCandidateIndexTest, DeadIsVertexBlocksRegistrationAndSkeleton) {
  SwapCandidateIndex sc;
  auto two_dead = [](VertexId w) { return w != 2; };
  EXPECT_FALSE(sc.Register(10, 1, 2, 64, two_dead, AllLive()));
  EXPECT_TRUE(sc.Register(10, 1, 2, 64, AllLive(), AllLive()));
  EXPECT_TRUE(sc.Register(11, 1, 2, 64, AllLive(), AllLive()));
  SwapCandidateIndex::Skeleton sk;
  EXPECT_FALSE(sc.TakeSkeleton(12, 1, 2, two_dead, AllLive(), &sk));
  // A single of IS vertex 1 sees the bucket, but w2 = 2 is dead.
  EXPECT_FALSE(sc.TakeSkeleton(12, 1, kInvalidVertex, two_dead, AllLive(),
                               &sk));
  EXPECT_TRUE(sc.TakeSkeleton(12, 1, kInvalidVertex, AllLive(), AllLive(),
                              &sk));
}

TEST(SwapCandidateIndexTest, SinglesPairButAreNotRegistered) {
  SwapCandidateIndex sc;
  // No bucket contains IS vertex 5 yet: a single cannot enter SC.
  EXPECT_FALSE(sc.Register(20, 5, kInvalidVertex, 64, AllLive(), AllLive()));
  EXPECT_TRUE(sc.Register(21, 5, 6, 64, AllLive(), AllLive()));
  // The single pairs with anchor 21, anchor first.
  EXPECT_TRUE(sc.Register(22, 5, kInvalidVertex, 64, AllLive(), AllLive()));
  SwapCandidateIndex::Skeleton sk;
  ASSERT_TRUE(sc.TakeSkeleton(23, 6, kInvalidVertex, AllLive(), AllLive(),
                              &sk));
  EXPECT_EQ(sk.v1, 21u);
  EXPECT_EQ(sk.v2, 22u);
  // The single itself never became an anchor a later vertex could use.
  std::vector<VertexId> seen;
  sc.Register(24, 5, 6, 64, AllLive(), Recorder{&seen});
  EXPECT_EQ(seen, (std::vector<VertexId>{21}));
}

TEST(SwapCandidateIndexTest, PairCapStopsPairing) {
  SwapCandidateIndex sc;
  EXPECT_TRUE(sc.Register(10, 1, 2, 1, AllLive(), AllLive()));
  EXPECT_TRUE(sc.Register(11, 1, 2, 1, AllLive(), AllLive()));  // pairs
  std::vector<VertexId> seen;
  EXPECT_TRUE(sc.Register(12, 1, 2, 1, AllLive(), Recorder{&seen}));
  EXPECT_TRUE(seen.empty());  // full bucket: no partner search
  // A full bucket is skipped by singles too.
  EXPECT_FALSE(sc.Register(13, 1, kInvalidVertex, 1, AllLive(),
                           Recorder{&seen}));
  EXPECT_TRUE(seen.empty());
}

TEST(SwapCandidateIndexTest, InsertionOrderSurvivesGrowthAndRehash) {
  SwapCandidateIndex sc;
  // IS vertex 0 is in 3000 buckets (0, k), created in a scrambled key
  // order; each holds two anchors. Enough to rehash both tables and
  // regrow every slab several times.
  constexpr VertexId kBuckets = 3000;
  std::vector<VertexId> expected;
  for (VertexId i = 0; i < kBuckets; ++i) {
    const VertexId other = 1 + (i * 7919) % kBuckets;
    const VertexId a = 100000 + 2 * i;
    sc.Register(a, other, 0, 64, AllLive(), AllLive());
    sc.Register(a + 1, 0, other, 64, AllLive(), AllLive());  // pairs with a
    expected.push_back(a);
    expected.push_back(a + 1);
  }
  // A single of vertex 0 searches every bucket containing 0 in creation
  // order, and each bucket's anchors in arrival order.
  std::vector<VertexId> seen;
  EXPECT_FALSE(sc.Register(7, 0, kInvalidVertex, 64, AllLive(),
                           Recorder{&seen}));
  EXPECT_EQ(seen, expected);
  // The skeleton walk visits the buckets in the same order: the first
  // bucket's pair (a + 1, a) fires.
  SwapCandidateIndex::Skeleton sk;
  ASSERT_TRUE(sc.TakeSkeleton(7, 0, kInvalidVertex, AllLive(), AllLive(),
                              &sk));
  EXPECT_EQ(sk.v1, 100001u);
  EXPECT_EQ(sk.v2, 100000u);
  EXPECT_EQ(sk.w1, 0u);
  EXPECT_EQ(sk.w2, 1u);
}

// Fills `sc` with `buckets` buckets, two anchors and one pair each.
void Fill(SwapCandidateIndex* sc, VertexId buckets, VertexId base) {
  for (VertexId i = 0; i < buckets; ++i) {
    sc->Register(base + 2 * i, 2 * i, 2 * i + 1, 64, AllLive(), AllLive());
    sc->Register(base + 2 * i + 1, 2 * i, 2 * i + 1, 64, AllLive(),
                 AllLive());
  }
}

TEST(SwapCandidateIndexTest, ClearKeepsCapacityAndRefillDoesNotGrow) {
  SwapCandidateIndex sc;
  EXPECT_EQ(sc.MemoryBytes(), 0u);  // nothing allocated up front
  Fill(&sc, 500, 10000);
  const size_t full = sc.MemoryBytes();
  EXPECT_GT(full, 0u);
  sc.Clear();
  EXPECT_EQ(sc.MemoryBytes(), full);
  // Cleared means empty: no bucket survives for a single to pair with.
  std::vector<VertexId> seen;
  EXPECT_FALSE(sc.Register(5, 0, kInvalidVertex, 64, AllLive(),
                           Recorder{&seen}));
  EXPECT_TRUE(seen.empty());
  SwapCandidateIndex::Skeleton sk;
  EXPECT_FALSE(sc.TakeSkeleton(5, 0, 1, AllLive(), AllLive(), &sk));
  // Refilling to the same size reuses the retained capacity.
  sc.Clear();
  Fill(&sc, 500, 20000);
  EXPECT_EQ(sc.MemoryBytes(), full);
  ASSERT_TRUE(sc.TakeSkeleton(5, 0, 1, AllLive(), AllLive(), &sk));
  EXPECT_EQ(sk.v1, 20001u);
  EXPECT_EQ(sk.v2, 20000u);
}

TEST(SwapCandidateIndexTest, MemoryBytesGrowsWithContent) {
  SwapCandidateIndex small, large;
  Fill(&small, 10, 10000);
  Fill(&large, 5000, 10000);
  EXPECT_GT(large.MemoryBytes(), small.MemoryBytes());
  // Flat storage, no node per entry. Each bucket here owns two anchors,
  // one pair, two key lists of one entry each, one key-table slot and two
  // vertex-table slots: about 110 bytes, up to 4x that in table slack
  // (load <= 1/2, doubling) and vector slack (doubling).
  EXPECT_LT(large.MemoryBytes(), 5000u * 400u);
}

}  // namespace
}  // namespace semis
