// Unit tests for the streaming maintainer's global delta state
// (core/edge_delta_state.h): update semantics against a std::set model,
// the lockstep lookup around high-degree vertices, pair recycling, the
// deleted-edge gate, and memory accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "core/edge_delta_state.h"
#include "util/random.h"

namespace semis {
namespace {

using EdgeSet = std::set<std::pair<VertexId, VertexId>>;

std::pair<VertexId, VertexId> Ordered(VertexId u, VertexId v) {
  return {std::min(u, v), std::max(u, v)};
}

std::vector<VertexId> InsertedNeighbors(const EdgeDeltaState& state,
                                        VertexId u) {
  std::vector<VertexId> out;
  state.AppendInsertedNeighbors(u, &out);
  std::sort(out.begin(), out.end());
  return out;
}

// Checks every observable of `state` against the model sets.
void ExpectMatchesModel(const EdgeDeltaState& state, VertexId n,
                        const EdgeSet& inserted, const EdgeSet& deleted) {
  ASSERT_EQ(state.num_inserted(), inserted.size());
  for (VertexId u = 0; u < n; ++u) {
    std::vector<VertexId> want;
    for (const auto& [a, b] : inserted) {
      if (a == u) want.push_back(b);
      if (b == u) want.push_back(a);
    }
    std::sort(want.begin(), want.end());
    ASSERT_EQ(InsertedNeighbors(state, u), want) << "vertex " << u;
    for (VertexId v = 0; v < n; ++v) {
      if (u == v) continue;
      ASSERT_EQ(state.IsDeleted(u, v), deleted.count(Ordered(u, v)) != 0)
          << u << "-" << v;
    }
  }
}

TEST(EdgeDeltaStateTest, ApplyFollowsTheLastOpAndReportsNoOps) {
  EdgeDeltaState state;
  state.Reset(4);
  EXPECT_TRUE(state.Apply(EdgeDeltaOp::kInsert, 0, 1));
  EXPECT_FALSE(state.Apply(EdgeDeltaOp::kInsert, 1, 0));  // already live
  EXPECT_EQ(InsertedNeighbors(state, 0), std::vector<VertexId>({1}));
  EXPECT_EQ(InsertedNeighbors(state, 1), std::vector<VertexId>({0}));
  EXPECT_FALSE(state.IsDeleted(0, 1));

  EXPECT_TRUE(state.Apply(EdgeDeltaOp::kDelete, 1, 0));
  EXPECT_FALSE(state.Apply(EdgeDeltaOp::kDelete, 0, 1));  // already deleted
  EXPECT_EQ(state.num_inserted(), 0u);
  EXPECT_TRUE(InsertedNeighbors(state, 0).empty());
  EXPECT_TRUE(state.IsDeleted(0, 1));
  EXPECT_TRUE(state.IsDeleted(1, 0));

  // A re-insert cancels the delete; a delete of a never-inserted edge is
  // recorded (it may mask a base edge).
  EXPECT_TRUE(state.Apply(EdgeDeltaOp::kInsert, 0, 1));
  EXPECT_FALSE(state.IsDeleted(0, 1));
  EXPECT_TRUE(state.Apply(EdgeDeltaOp::kDelete, 2, 3));
  EXPECT_TRUE(state.IsDeleted(3, 2));
  EXPECT_FALSE(state.IsDeleted(0, 2));

  state.Reset(4);
  EXPECT_EQ(state.num_inserted(), 0u);
  EXPECT_FALSE(state.IsDeleted(2, 3));
  EXPECT_TRUE(InsertedNeighbors(state, 0).empty());
}

TEST(EdgeDeltaStateTest, RandomStreamsMatchASetModel) {
  constexpr VertexId kN = 12;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    EdgeDeltaState state;
    state.Reset(kN);
    EdgeSet inserted, deleted;
    Random rng(seed + 1);
    for (int step = 0; step < 400; ++step) {
      const auto u = static_cast<VertexId>(rng.Uniform(kN));
      const auto v = static_cast<VertexId>(rng.Uniform(kN));
      if (u == v) continue;
      const auto e = Ordered(u, v);
      if (rng.OneIn(0.5)) {
        const bool changes = inserted.count(e) == 0;
        ASSERT_EQ(state.Apply(EdgeDeltaOp::kInsert, u, v), changes);
        inserted.insert(e);
        deleted.erase(e);
      } else {
        const bool changes = deleted.count(e) == 0;
        ASSERT_EQ(state.Apply(EdgeDeltaOp::kDelete, u, v), changes);
        deleted.insert(e);
        inserted.erase(e);
      }
      if (step % 40 == 39) {
        ExpectMatchesModel(state, kN, inserted, deleted);
      }
    }
    ExpectMatchesModel(state, kN, inserted, deleted);
  }
}

TEST(EdgeDeltaStateTest, HubEdgesAreFoundAndRemovedFromEitherSide) {
  // A star: the hub's list is long, every leaf's list has one entry, so
  // the lockstep lookup settles on the leaf side.
  constexpr VertexId kLeaves = 500;
  EdgeDeltaState state;
  state.Reset(kLeaves + 1);
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_TRUE(state.Apply(EdgeDeltaOp::kInsert, 0, leaf));
  }
  for (VertexId leaf = 1; leaf <= kLeaves; ++leaf) {
    ASSERT_FALSE(state.Apply(EdgeDeltaOp::kInsert, leaf, 0));
  }
  EXPECT_EQ(state.num_inserted(), kLeaves);
  // Remove every other spoke, from alternating sides.
  for (VertexId leaf = 1; leaf <= kLeaves; leaf += 2) {
    ASSERT_TRUE(leaf % 4 == 1 ? state.Apply(EdgeDeltaOp::kDelete, 0, leaf)
                              : state.Apply(EdgeDeltaOp::kDelete, leaf, 0));
  }
  std::vector<VertexId> want;
  for (VertexId leaf = 2; leaf <= kLeaves; leaf += 2) want.push_back(leaf);
  EXPECT_EQ(InsertedNeighbors(state, 0), want);
  EXPECT_TRUE(state.AnyInsertedNeighbor(0, [](VertexId nb) {
    return nb == kLeaves;
  }));
  EXPECT_FALSE(state.AnyInsertedNeighbor(0, [](VertexId nb) {
    return nb == 1;
  }));
  EXPECT_TRUE(InsertedNeighbors(state, 1).empty());
  EXPECT_EQ(InsertedNeighbors(state, 2), std::vector<VertexId>({0}));
}

TEST(EdgeDeltaStateTest, FreedPairsAreRecycledAndResetReleasesTheSlab) {
  EdgeDeltaState state;
  state.Reset(64);
  const size_t empty = state.MemoryBytes();
  for (VertexId v = 1; v < 64; ++v) {
    ASSERT_TRUE(state.Apply(EdgeDeltaOp::kInsert, 0, v));
  }
  EXPECT_GT(state.MemoryBytes(), empty);
  // Churn at a constant live count: deletes free pairs that the next
  // inserts reuse (and re-inserts cancel the deleted keys), so after the
  // first round nothing grows any more.
  size_t churned = 0;
  for (int round = 0; round < 10; ++round) {
    for (VertexId v = 1; v < 64; ++v) {
      ASSERT_TRUE(state.Apply(EdgeDeltaOp::kDelete, 0, v));
    }
    for (VertexId v = 1; v < 64; ++v) {
      ASSERT_TRUE(state.Apply(EdgeDeltaOp::kInsert, v, 0));
    }
    if (round == 0) churned = state.MemoryBytes();
  }
  EXPECT_EQ(state.num_inserted(), 63u);
  EXPECT_EQ(state.MemoryBytes(), churned);
  state.Reset(64);
  EXPECT_EQ(state.MemoryBytes(), empty);
}

}  // namespace
}  // namespace semis
