#include "core/two_k_swap.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/one_k_swap.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/paper_figures.h"
#include "gen/plrg.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::Fnv1a;
using testing_util::RandomMaximalSet;
using testing_util::RoundStatsDigest;
using testing_util::SetDigest;
using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;
using testing_util::WriteGraphFileInOrder;

class TwoKSwapTest : public ScratchTest {};

BitVector MakeSet(size_t n, std::initializer_list<VertexId> members) {
  BitVector set(n);
  for (VertexId v : members) set.Set(v);
  return set;
}

TEST_F(TwoKSwapTest, Figure7Example3ExactTrace) {
  // Example 3: initial {v1,v2,v3}; the 2-3 skeleton (v4,v5,v6,v2,v3)
  // fires, v8 follows through the all-R rule, v7 conflicts, and the final
  // set is {v1, v4, v5, v6, v8} -- a 2<->4 swap.
  PaperExample ex = Figure7Example();
  std::string path = WriteGraphFileInOrder(&scratch_, ex.graph, ex.scan_order);
  BitVector initial = MakeSet(8, {0, 1, 2});
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, initial, {}, &res));
  EXPECT_EQ(res.set_size, 5u);
  EXPECT_EQ(SetToVector(res.in_set),
            (std::vector<VertexId>{0, 3, 4, 5, 7}));  // v1,v4,v5,v6,v8
  ASSERT_GE(res.round_stats.size(), 1u);
  EXPECT_EQ(res.round_stats[0].two_k_swaps, 1u);
  EXPECT_EQ(res.round_stats[0].follower_joins, 1u);  // v8
  EXPECT_EQ(res.round_stats[0].conflicts, 1u);       // v7
  EXPECT_GE(res.sc_peak_vertices, 2u);  // v4 (anchor) + singles
}

TEST_F(TwoKSwapTest, OneKStuckTwoKProceeds) {
  // K_{2,3}: initial set = the two left vertices {0,1}. No single 1-k
  // swap helps (every right vertex has BOTH left vertices as neighbors),
  // but the 2-3 swap exchanges {0,1} for the three right vertices.
  Graph g = GenerateCompleteBipartite(2, 3);
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector initial = MakeSet(5, {0, 1});

  AlgoResult one_k;
  ASSERT_OK(RunOneKSwap(path, initial, {}, &one_k));
  EXPECT_EQ(one_k.set_size, 2u);  // one-k cannot move

  AlgoResult two_k;
  ASSERT_OK(RunTwoKSwap(path, initial, {}, &two_k));
  EXPECT_EQ(two_k.set_size, 3u);
  EXPECT_EQ(SetToVector(two_k.in_set), (std::vector<VertexId>{2, 3, 4}));
}

TEST_F(TwoKSwapTest, NeverShrinksAndStaysValid) {
  for (uint64_t seed = 0; seed < 8; ++seed) {
    Graph g = GenerateErdosRenyi(200, 500, seed);
    std::string path = WriteGraphFile(&scratch_, g);
    BitVector initial = RandomMaximalSet(g, seed * 13 + 5);
    AlgoResult res;
    ASSERT_OK(RunTwoKSwap(path, initial, {}, &res));
    EXPECT_GE(res.set_size, initial.Count()) << "seed " << seed;
    VerifyResult vr = VerifyIndependentSet(g, res.in_set);
    EXPECT_TRUE(vr.independent)
        << "seed " << seed << " edge " << vr.witness_u << "-" << vr.witness_v;
    EXPECT_TRUE(vr.maximal) << "seed " << seed;
  }
}

TEST_F(TwoKSwapTest, AtLeastAsGoodAsOneKAfterGreedy) {
  // Not a theorem pointwise, but on power-law graphs after greedy the
  // two-k result should not lose to one-k by more than noise -- the paper
  // reports it consistently equal or better (Table 5).
  for (uint64_t seed = 0; seed < 4; ++seed) {
    Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), seed + 7);
    std::string path = WriteGraphFile(&scratch_, g);
    AlgoResult greedy;
    ASSERT_OK(RunGreedy(path, {}, &greedy));
    AlgoResult one_k, two_k;
    ASSERT_OK(RunOneKSwap(path, greedy.in_set, {}, &one_k));
    ASSERT_OK(RunTwoKSwap(path, greedy.in_set, {}, &two_k));
    EXPECT_GE(two_k.set_size + two_k.set_size / 100, one_k.set_size)
        << "seed " << seed;
    EXPECT_GE(two_k.set_size, greedy.set_size);
  }
}

TEST_F(TwoKSwapTest, ScPeakIsBoundedByLemma6) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 31);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(path, {}, &greedy));
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, greedy.in_set, {}, &res));
  // Lemma 6: |SC| < |V| - (number of degree-1 vertices); empirically the
  // paper observes ~0.13 |V| (Figure 10). Assert the hard bound.
  uint64_t degree_one = 0;
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    if (g.Degree(v) == 1) degree_one++;
  }
  EXPECT_LT(res.sc_peak_vertices, g.NumVertices() - degree_one);
}

TEST_F(TwoKSwapTest, EarlyStopStillValid) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 1.9), 77);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(path, {}, &greedy));
  TwoKSwapOptions opts;
  opts.max_rounds = 1;
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, greedy.in_set, opts, &res));
  EXPECT_EQ(res.rounds, 1u);
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

TEST_F(TwoKSwapTest, PairCapDegradesGracefully) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 13);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(path, {}, &greedy));
  TwoKSwapOptions tight;
  tight.max_pairs_per_bucket = 1;
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, greedy.in_set, tight, &res));
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  EXPECT_GE(res.set_size, greedy.set_size);
}

TEST_F(TwoKSwapTest, MemoryStaysNearFourWordsPerVertex) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(50000, 2.0), 6);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(path, {}, &greedy));
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, greedy.in_set, {}, &res));
  // state (1B) + two ISN words (8B) + stamp (4B) + SC; the paper bounds
  // the whole footprint by ~4 words/vertex. The SC charge is every byte
  // the swap-candidate index holds, table and slab slack included: 25.0
  // B/vertex in all on this graph. The 3 B/vertex margin leaves room for
  // one more doubling of a slab, not for a per-entry node allocator.
  EXPECT_LT(res.peak_memory_bytes, 28ull * g.NumVertices());
  // The non-SC part is exactly 13 bytes/vertex + the result bitset.
  EXPECT_EQ(res.memory.CategoryBytes("state") +
                res.memory.CategoryBytes("isn") +
                res.memory.CategoryBytes("stamp"),
            13ull * g.NumVertices());
}

TEST_F(TwoKSwapTest, ThreeScansPerRoundPlusInit) {
  // The paper: "one round of swap needs three iterations of scan". Our
  // two-k realizes all three as file scans (pre-swap, swap verification,
  // post-swap) on top of the opening/init scan.
  Graph g = GenerateCycle(30);
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector initial = RandomMaximalSet(g, 3);
  TwoKSwapOptions opts;
  opts.final_maximality_pass = false;
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, initial, opts, &res));
  EXPECT_EQ(res.io.sequential_scans, 1 + 3 * res.rounds);
}

TEST_F(TwoKSwapTest, MismatchedInitialSetRejected) {
  Graph g = GenerateCycle(10);
  std::string path = WriteGraphFile(&scratch_, g);
  BitVector wrong(3);
  AlgoResult res;
  EXPECT_TRUE(RunTwoKSwap(path, wrong, {}, &res).IsInvalidArgument());
}

// A 6-cycle whose file order makes every round fire two 1-2 swaps that
// deny each other's second candidate: the set oscillates {0,1} -> {2,4}
// -> {3,5} -> {2,4} -> ... with |IS| pinned at 2. Without the stall guard
// the loop would never terminate (every round removes and adds two
// vertices, so can_swap stays true); the guard must break after
// `stall_round_limit` consecutive gainless rounds.
//
// Cycle edges: 0-2, 2-5, 5-1, 1-4, 4-3, 3-0; scan order [2,4,3,5,0,1].
struct StallGadget {
  Graph graph = Graph::FromEdges(
      6, {{0, 2}, {2, 5}, {5, 1}, {1, 4}, {4, 3}, {3, 0}});
  std::vector<VertexId> order = {2, 4, 3, 5, 0, 1};
};

TEST_F(TwoKSwapTest, StallGuardBreaksPerpetualOscillation) {
  StallGadget gadget;
  std::string path = WriteGraphFileInOrder(&scratch_, gadget.graph,
                                           gadget.order);
  BitVector initial = MakeSet(6, {0, 1});
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, initial, TwoKSwapOptions{}, &res));
  // Default limit is 3: rounds 1..3 are all gainless swaps-of-two.
  EXPECT_EQ(res.rounds, 3u);
  ASSERT_EQ(res.round_stats.size(), 3u);
  for (const RoundStats& round : res.round_stats) {
    EXPECT_EQ(round.removed_is_vertices, 2u);
    EXPECT_EQ(round.new_is_vertices, 2u);
    EXPECT_EQ(round.is_size_after, 2u);
  }
  EXPECT_EQ(res.set_size, 2u);
  VerifyResult vr = VerifyIndependentSet(gadget.graph, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

TEST_F(TwoKSwapTest, StallRoundLimitIsConfigurable) {
  StallGadget gadget;
  std::string path = WriteGraphFileInOrder(&scratch_, gadget.graph,
                                           gadget.order);
  BitVector initial = MakeSet(6, {0, 1});
  for (uint32_t limit : {1u, 2u}) {
    TwoKSwapOptions opts;
    opts.stall_round_limit = limit;
    AlgoResult res;
    ASSERT_OK(RunTwoKSwap(path, initial, opts, &res));
    EXPECT_EQ(res.rounds, limit) << "limit " << limit;
    EXPECT_EQ(res.set_size, 2u);
    VerifyResult vr = VerifyIndependentSet(gadget.graph, res.in_set);
    EXPECT_TRUE(vr.independent);
    EXPECT_TRUE(vr.maximal);
  }
}

TEST_F(TwoKSwapTest, StallGuardResetsAfterGainfulRound) {
  // On a normal power-law run, rounds that grow the set keep resetting
  // the stall counter, so even a tight limit of 1 does not truncate a
  // converging run below its gainful prefix.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 91);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(path, GreedyOptions{}, &greedy));
  TwoKSwapOptions tight;
  tight.stall_round_limit = 1;
  AlgoResult res;
  ASSERT_OK(RunTwoKSwap(path, greedy.in_set, tight, &res));
  // Every round but the last must have grown the set (a single gainless
  // round trips the limit immediately).
  uint64_t prev = greedy.set_size;
  for (size_t i = 0; i + 1 < res.round_stats.size(); ++i) {
    EXPECT_GT(res.round_stats[i].is_size_after, prev) << "round " << i;
    prev = res.round_stats[i].is_size_after;
  }
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

// What a pinned run reproduces: the result, the per-round counters, and
// the state array at every observer phase, each folded into a digest.
struct TwoKPin {
  uint64_t set_size;
  uint64_t rounds;
  uint64_t sc_peak_vertices;
  uint64_t phases_observed;
  uint64_t two_k_swaps;  // summed over rounds
  uint64_t phase_digest;
  uint64_t round_digest;
  uint64_t set_digest;
};

TwoKPin PinTwoKRun(const std::string& path, const BitVector& initial,
                   TwoKSwapOptions opts) {
  TwoKPin pin{};
  pin.phase_digest = Fnv1a(nullptr, 0);
  opts.observer = [&pin](const char* phase, uint64_t round,
                         const std::vector<VState>& states) {
    pin.phases_observed++;
    pin.phase_digest = Fnv1a(phase, std::strlen(phase), pin.phase_digest);
    pin.phase_digest = Fnv1a(&round, sizeof(round), pin.phase_digest);
    pin.phase_digest =
        Fnv1a(states.data(), states.size() * sizeof(VState), pin.phase_digest);
  };
  AlgoResult res;
  Status s = RunTwoKSwap(path, initial, opts, &res);
  EXPECT_TRUE(s.ok()) << s.ToString();
  pin.set_size = res.set_size;
  pin.rounds = res.rounds;
  pin.sc_peak_vertices = res.sc_peak_vertices;
  for (const RoundStats& r : res.round_stats) pin.two_k_swaps += r.two_k_swaps;
  pin.round_digest = RoundStatsDigest(res.round_stats);
  pin.set_digest = SetDigest(res.in_set);
  return pin;
}

void ExpectPin(const TwoKPin& got, const TwoKPin& want, const char* name) {
  SCOPED_TRACE(name);
  EXPECT_EQ(got.set_size, want.set_size);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.sc_peak_vertices, want.sc_peak_vertices);
  EXPECT_EQ(got.phases_observed, want.phases_observed);
  EXPECT_EQ(got.two_k_swaps, want.two_k_swaps);
  EXPECT_EQ(got.phase_digest, want.phase_digest);
  EXPECT_EQ(got.round_digest, want.round_digest);
  EXPECT_EQ(got.set_digest, want.set_digest);
}

TEST_F(TwoKSwapTest, PinnedRunsReproduceRecordedPhases) {
  // Recorded from the node-based hash-map implementation of the SC
  // buckets. The flat swap-candidate index visits anchors, pairs and
  // per-IS-vertex keys in the same insertion order, so every phase's state
  // array, every round counter and the set are unchanged bit for bit.
  Graph plrg = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 41);
  std::string plrg_path = WriteGraphFile(&scratch_, plrg);
  AlgoResult greedy;
  ASSERT_OK(RunGreedy(plrg_path, {}, &greedy));
  ExpectPin(PinTwoKRun(plrg_path, greedy.in_set, {}),
            TwoKPin{13685u, 4u, 1512u, 14u, 10u,
                    0x725b083da08662ebull, 0x742f3e8ed3a3ed1aull,
                    0x1262cd8797ec5bd2ull},
            "plrg");
  TwoKSwapOptions capped;
  capped.max_pairs_per_bucket = 1;
  ExpectPin(PinTwoKRun(plrg_path, greedy.in_set, capped),
            TwoKPin{13685u, 4u, 1512u, 14u, 11u,
                    0x44c9a26dca2b23f6ull, 0xac26ddc63f07257eull,
                    0x1262cd8797ec5bd2ull},
            "plrg-capped");

  Graph er = GenerateErdosRenyi(3000, 9000, 42);
  std::string er_path = WriteGraphFile(&scratch_, er);
  ExpectPin(PinTwoKRun(er_path, RandomMaximalSet(er, 5), {}),
            TwoKPin{1113u, 5u, 765u, 17u, 22u,
                    0x410a62bd0a54bfabull, 0x2f95862a39524dbbull,
                    0xb15e8fad11a248deull},
            "er");
}

}  // namespace
}  // namespace semis
