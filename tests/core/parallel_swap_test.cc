#include "core/parallel_swap.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/solver.h"
#include "core/two_k_swap.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::RoundStatsDigest;
using testing_util::ScratchTest;
using testing_util::SetDigest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;

class ParallelSwapTest : public ScratchTest {
 protected:
  // Writes `g` degree-sorted, shards it, and runs greedy for the initial
  // set. Returns the manifest path.
  std::string Prepare(const Graph& g, uint32_t num_shards) {
    std::string mono = WriteGraphFile(&scratch_, g);
    std::string sorted = NewPath("sorted");
    Status s = BuildDegreeSortedAdjacencyFile(mono, sorted,
                                              DegreeSortOptions{});
    EXPECT_TRUE(s.ok()) << s.ToString();
    std::string manifest = NewPath("sharded");
    s = ShardAdjacencyFile(sorted, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    s = RunGreedy(sorted, GreedyOptions{}, &greedy_);
    EXPECT_TRUE(s.ok()) << s.ToString();
    sorted_path_ = sorted;
    return manifest;
  }

  AlgoResult greedy_;
  std::string sorted_path_;
};

TEST_F(ParallelSwapTest, ByteIdenticalAcrossThreadCounts) {
  // The acceptance contract of the parallel executor: the independent set
  // is byte-identical to the sequential path (num_threads == 1) at every
  // thread count, on a non-trivial power-law graph.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(30000, 2.0), 31);
  std::string manifest = Prepare(g, 8);

  AlgoResult sequential;
  ParallelSwapOptions opts;
  opts.num_threads = 1;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &sequential));
  EXPECT_GE(sequential.set_size, greedy_.set_size);

  for (uint32_t threads : {2u, 8u}) {
    AlgoResult parallel;
    ParallelSwapOptions popts;
    popts.num_threads = threads;
    ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, popts, &parallel));
    EXPECT_EQ(parallel.set_size, sequential.set_size) << threads;
    EXPECT_EQ(SetToVector(parallel.in_set), SetToVector(sequential.in_set))
        << "result depends on thread count at " << threads << " threads";
    EXPECT_EQ(parallel.rounds, sequential.rounds) << threads;
  }
}

TEST_F(ParallelSwapTest, ResultIsIndependentAndMaximal) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.2), 32);
  std::string manifest = Prepare(g, 6);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.num_threads = 4;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  EXPECT_EQ(res.in_set.Count(), res.set_size);
}

TEST_F(ParallelSwapTest, ImprovesOnGreedyLikeSequentialTwoK) {
  // The parallel executor resolves conflicts differently from the
  // monolithic two-k-swap, but it must land in the same quality band.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 33);
  std::string manifest = Prepare(g, 6);

  AlgoResult parallel;
  ParallelSwapOptions opts;
  opts.num_threads = 2;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &parallel));

  AlgoResult twok;
  ASSERT_OK(
      RunTwoKSwap(sorted_path_, greedy_.in_set, TwoKSwapOptions{}, &twok));

  EXPECT_GT(parallel.set_size, greedy_.set_size);
  // Within 1% of the sequential two-k result.
  EXPECT_GE(parallel.set_size + twok.set_size / 100, twok.set_size);
}

TEST_F(ParallelSwapTest, OneKModeAlsoDeterministic) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.1), 34);
  std::string manifest = Prepare(g, 5);
  AlgoResult base;
  ParallelSwapOptions opts;
  opts.enable_two_k = false;
  opts.num_threads = 1;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &base));
  ParallelSwapOptions opts4 = opts;
  opts4.num_threads = 4;
  AlgoResult res4;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts4, &res4));
  EXPECT_EQ(SetToVector(res4.in_set), SetToVector(base.in_set));
  VerifyResult vr = VerifyIndependentSet(g, base.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
}

TEST_F(ParallelSwapTest, MaxRoundsRespected) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 35);
  std::string manifest = Prepare(g, 4);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.max_rounds = 1;
  opts.num_threads = 2;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  EXPECT_LE(res.rounds, 1u);
}

TEST_F(ParallelSwapTest, MergesPerThreadIoIntoAggregate) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 36);
  std::string manifest = Prepare(g, 4);
  AlgoResult res;
  ParallelSwapOptions opts;
  opts.num_threads = 3;
  ASSERT_OK(RunParallelSwap(manifest, greedy_.in_set, opts, &res));
  // Every round is five full passes over the shards plus the completion
  // loop; all of that I/O must land in the merged counters.
  EXPECT_GT(res.io.bytes_read, 0u);
  EXPECT_GE(res.io.sequential_scans, 5u * res.rounds);
  EXPECT_GT(res.io.files_opened, 0u);
  EXPECT_GT(res.peak_memory_bytes, 0u);
}

TEST_F(ParallelSwapTest, InitialSetSizeMismatchRejected) {
  Graph g = GenerateErdosRenyi(100, 200, 37);
  std::string manifest = Prepare(g, 2);
  BitVector wrong(50);
  AlgoResult res;
  EXPECT_TRUE(RunParallelSwap(manifest, wrong, ParallelSwapOptions{}, &res)
                  .IsInvalidArgument());
}

TEST_F(ParallelSwapTest, SolverIntegrationEndToEnd) {
  // SolveFile with num_shards > 1 routes the swap stage through the
  // parallel executor; the result must verify and the thread count must
  // not change it.
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.0), 38);
  std::string path = WriteGraphFile(&scratch_, g);
  SolverOptions opts;
  opts.pipeline.num_shards = 4;
  opts.pipeline.num_threads = 2;
  opts.verify = true;
  Solver solver(opts);
  SolveResult res;
  ASSERT_OK(solver.SolveFile(path, &res));
  EXPECT_GE(res.set_size, res.greedy.set_size);
  EXPECT_GT(res.shard_seconds, 0.0);

  SolverOptions opts1 = opts;
  opts1.pipeline.num_threads = 1;
  Solver solver1(opts1);
  SolveResult res1;
  ASSERT_OK(solver1.SolveFile(path, &res1));
  EXPECT_EQ(SetToVector(res1.set), SetToVector(res.set));
}

// What a pinned run reproduces: the result and the per-round counters.
struct ParallelPin {
  uint64_t set_size;
  uint64_t rounds;
  uint64_t sc_peak_vertices;
  uint64_t two_k_swaps;  // summed over rounds
  uint64_t round_digest;
  uint64_t set_digest;
};

void ExpectParallelPin(const std::string& manifest, const BitVector& initial,
                       const ParallelPin& want, const char* name) {
  for (uint32_t threads : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(std::string(name) + " at " + std::to_string(threads) +
                 " threads");
    ParallelSwapOptions opts;
    opts.num_threads = threads;
    AlgoResult res;
    ASSERT_OK(RunParallelSwap(manifest, initial, opts, &res));
    uint64_t two_k_swaps = 0;
    for (const RoundStats& r : res.round_stats) two_k_swaps += r.two_k_swaps;
    const ParallelPin got{res.set_size, res.rounds, res.sc_peak_vertices,
                          two_k_swaps, RoundStatsDigest(res.round_stats),
                          SetDigest(res.in_set)};
    EXPECT_EQ(got.set_size, want.set_size);
    EXPECT_EQ(got.rounds, want.rounds);
    EXPECT_EQ(got.sc_peak_vertices, want.sc_peak_vertices);
    EXPECT_EQ(got.two_k_swaps, want.two_k_swaps);
    EXPECT_EQ(got.round_digest, want.round_digest);
    EXPECT_EQ(got.set_digest, want.set_digest);
  }
}

TEST_F(ParallelSwapTest, PinnedRunsReproduceRecordedRounds) {
  // Recorded from the node-based hash-map implementation of the
  // shard-local SC buckets; the flat swap-candidate index keeps their
  // insertion order, so the set and every round counter are unchanged at
  // every thread count.
  Graph plrg = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 41);
  std::string plrg_manifest = Prepare(plrg, 8);
  ExpectParallelPin(plrg_manifest, greedy_.in_set,
                    ParallelPin{13693u, 2u, 1377u, 0u,
                                0x50c91243bf8eaa92ull, 0x508657095787a15ull},
                    "plrg");

  Graph er = GenerateErdosRenyi(3000, 9000, 42);
  std::string er_manifest = Prepare(er, 3);
  ExpectParallelPin(er_manifest, RandomMaximalSet(er, 5),
                    ParallelPin{1103u, 4u, 688u, 4u,
                                0xcd1b1535e5e670e7ull, 0xef20dac602905d1aull},
                    "er");

  Graph er8 = GenerateErdosRenyi(20000, 50000, 43);
  std::string er8_manifest = Prepare(er8, 8);
  ExpectParallelPin(er8_manifest, RandomMaximalSet(er8, 9),
                    ParallelPin{8177u, 6u, 4297u, 3u,
                                0x75b2251df3eb9978ull, 0x278ab3401abff260ull},
                    "er-8-shards");
}

}  // namespace
}  // namespace semis
