#include "core/greedy.h"

#include <gtest/gtest.h>

#include <numeric>

#include "core/parallel_greedy.h"
#include "core/verify.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::SetToVector;
using testing_util::WriteGraphFile;
using testing_util::WriteGraphFileInOrder;

class GreedyTest : public ScratchTest {};

// Helper: degree-ascending record order for a graph.
std::vector<VertexId> DegreeOrder(const Graph& g) {
  std::vector<VertexId> order(g.NumVertices());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](VertexId a, VertexId b) {
    return g.Degree(a) < g.Degree(b);
  });
  return order;
}

TEST_F(GreedyTest, StarDegreeSortedPicksAllLeaves) {
  Graph g = GenerateStar(50);
  std::string path = WriteGraphFileInOrder(&scratch_, g, DegreeOrder(g),
                                           kAdjFlagDegreeSorted);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.set_size, 49u);  // all leaves; the center is excluded
  EXPECT_FALSE(res.in_set.Test(0));
}

TEST_F(GreedyTest, StarIdOrderPicksOnlyCenter) {
  // BASELINE behaviour: the id-ordered file scans the hub first and the
  // whole star collapses to a single vertex -- the ordering is the entire
  // difference between GREEDY and BASELINE.
  Graph g = GenerateStar(50);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.set_size, 1u);
  EXPECT_TRUE(res.in_set.Test(0));
}

TEST_F(GreedyTest, RequireDegreeSortedFlagEnforced) {
  Graph g = GenerateStar(5);
  std::string path = WriteGraphFile(&scratch_, g);
  GreedyOptions opts;
  opts.require_degree_sorted = true;
  AlgoResult res;
  EXPECT_TRUE(RunGreedy(path, opts, &res).IsInvalidArgument());
}

TEST_F(GreedyTest, ResultIsMaximalIndependentSet) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    Graph g = GenerateErdosRenyi(300, 900, seed);
    std::string path = WriteGraphFileInOrder(&scratch_, g, DegreeOrder(g),
                                             kAdjFlagDegreeSorted);
    AlgoResult res;
    ASSERT_OK(RunGreedy(path, {}, &res));
    VerifyResult vr = VerifyIndependentSet(g, res.in_set);
    EXPECT_TRUE(vr.independent) << "edge " << vr.witness_u << "-"
                                << vr.witness_v;
    EXPECT_TRUE(vr.maximal) << "addable " << vr.witness_u;
    EXPECT_EQ(res.in_set.Count(), res.set_size);
  }
}

TEST_F(GreedyTest, PathOptimal) {
  // Path 0-1-2-3-4: degree order puts endpoints first; greedy should find
  // an optimal set of size 3.
  Graph g = GeneratePath(5);
  std::string path = WriteGraphFileInOrder(&scratch_, g, DegreeOrder(g),
                                           kAdjFlagDegreeSorted);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.set_size, 3u);
}

TEST_F(GreedyTest, CompleteGraphAlwaysSizeOne) {
  Graph g = GenerateComplete(10);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.set_size, 1u);
}

TEST_F(GreedyTest, EmptyAndEdgelessGraphs) {
  {
    Graph g = Graph::FromEdges(0, {});
    std::string path = WriteGraphFile(&scratch_, g);
    AlgoResult res;
    ASSERT_OK(RunGreedy(path, {}, &res));
    EXPECT_EQ(res.set_size, 0u);
  }
  {
    Graph g = Graph::FromEdges(7, {});
    std::string path = WriteGraphFile(&scratch_, g);
    AlgoResult res;
    ASSERT_OK(RunGreedy(path, {}, &res));
    EXPECT_EQ(res.set_size, 7u);  // every isolated vertex joins
  }
}

TEST_F(GreedyTest, SingleScanOnly) {
  Graph g = GenerateErdosRenyi(1000, 3000, 4);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.io.sequential_scans, 1u);  // Algorithm 1: ONE scan
  uint64_t file_size = 0;
  ASSERT_OK(GetFileSize(path, &file_size));
  EXPECT_LE(res.io.bytes_read, file_size);
}

TEST_F(GreedyTest, MemoryIsOneBytePerVertexPlusResult) {
  Graph g = GenerateErdosRenyi(10000, 30000, 4);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult res;
  ASSERT_OK(RunGreedy(path, {}, &res));
  EXPECT_EQ(res.memory.CategoryBytes("state"), 10000u);
  EXPECT_LE(res.peak_memory_bytes, 10000u + 10000u / 8 + 64);
}

TEST_F(GreedyTest, DegreeSortPipelineBeatsBaselineOnPowerLaw) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 21);
  std::string unsorted = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(unsorted, sorted, {}));
  AlgoResult baseline, greedy;
  ASSERT_OK(RunGreedy(unsorted, {}, &baseline));
  ASSERT_OK(RunGreedy(sorted, {}, &greedy));
  // Table 5's consistent observation: GREEDY > BASELINE on power-law
  // graphs.
  EXPECT_GT(greedy.set_size, baseline.set_size);
}

TEST_F(GreedyTest, StatesMatchBitset) {
  Graph g = GenerateErdosRenyi(100, 200, 9);
  std::string path = WriteGraphFile(&scratch_, g);
  AlgoResult res;
  std::vector<VState> states;
  ASSERT_OK(RunGreedyWithStates(path, {}, &res, &states));
  ASSERT_EQ(states.size(), 100u);
  for (VertexId v = 0; v < 100; ++v) {
    EXPECT_EQ(states[v] == VState::kI, res.in_set.Test(v));
    EXPECT_TRUE(states[v] == VState::kI || states[v] == VState::kN);
  }
}

// Greedy over SADJS stores. A store is read through the same scanner as
// a SADJ file, in manifest order, so the suite pins the store path to
// the SADJ path byte for byte. It also runs parallel_greedy.h's
// forwarder, which the end-to-end benchmark calls with worker threads
// configured: the thread count must not change a byte either.
class ParallelGreedyTest : public ScratchTest {
 protected:
  // Shards `mono` into `num_shards` and returns the manifest path.
  std::string Shard(const std::string& mono, uint32_t num_shards) {
    std::string manifest = NewPath("sharded" + std::to_string(num_shards));
    Status s = ShardAdjacencyFile(mono, manifest, num_shards);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return manifest;
  }

  // Degree-sorts `mono` and returns the sorted path.
  std::string Sort(const std::string& mono) {
    std::string sorted = NewPath("sorted");
    Status s =
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{});
    EXPECT_TRUE(s.ok()) << s.ToString();
    return sorted;
  }

  // Checks that RunGreedy over `path` split into 1/3/7/16 shards gives
  // the set and the state array of RunGreedy over `path` itself.
  void ExpectStoresMatchFile(const std::string& path) {
    AlgoResult ref;
    std::vector<VState> ref_states;
    ASSERT_OK(RunGreedyWithStates(path, {}, &ref, &ref_states));
    for (uint32_t shards : {1u, 3u, 7u, 16u}) {
      AlgoResult res;
      std::vector<VState> states;
      ASSERT_OK(RunGreedyWithStates(Shard(path, shards), {}, &res, &states));
      EXPECT_EQ(res.set_size, ref.set_size) << shards << " shards";
      EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set))
          << shards << " shards";
      EXPECT_EQ(states, ref_states)
          << "state array differs at " << shards << " shards";
    }
  }
};

// Degree-sorted input at every shard count, and the forwarder at every
// thread count, reproduce the SADJ file's run byte for byte.
TEST_F(ParallelGreedyTest, ByteIdenticalAcrossShardAndThreadCounts) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 41);
  std::string sorted = Sort(WriteGraphFile(&scratch_, g));
  ExpectStoresMatchFile(sorted);

  AlgoResult ref;
  std::vector<VState> ref_states;
  ASSERT_OK(RunGreedyWithStates(sorted, {}, &ref, &ref_states));
  std::string manifest = Shard(sorted, 7);
  for (uint32_t threads : {1u, 2u, 4u}) {
    ParallelGreedyOptions opts;
    opts.pipeline.num_threads = threads;
    AlgoResult res;
    std::vector<VState> states;
    ASSERT_OK(RunParallelGreedyWithStates(manifest, opts, &res, &states));
    EXPECT_EQ(states, ref_states) << threads << " threads";
  }
}

// Id-ordered (BASELINE) input: the store path does not care whether the
// record order is the degree-sorted one.
TEST_F(ParallelGreedyTest, IdOrderedBaselineInputAlsoByteIdentical) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(15000, 2.1), 42);
  ExpectStoresMatchFile(WriteGraphFile(&scratch_, g));
}

TEST_F(ParallelGreedyTest, ResultIsMaximalIndependentSet) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 43);
  std::string manifest = Shard(Sort(WriteGraphFile(&scratch_, g)), 5);
  AlgoResult res;
  ASSERT_OK(RunGreedy(manifest, {}, &res));
  VerifyResult vr = VerifyIndependentSet(g, res.in_set);
  EXPECT_TRUE(vr.independent);
  EXPECT_TRUE(vr.maximal);
  EXPECT_EQ(res.in_set.Count(), res.set_size);
}

TEST_F(ParallelGreedyTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  ExpectStoresMatchFile(WriteGraphFile(&scratch_, g));
  AlgoResult res;
  ASSERT_OK(RunGreedy(Shard(WriteGraphFile(&scratch_, g), 3), {}, &res));
  EXPECT_EQ(res.set_size, 0u);
}

TEST_F(ParallelGreedyTest, SingleShardManifest) {
  Graph g = GenerateErdosRenyi(2000, 6000, 44);
  std::string mono = WriteGraphFile(&scratch_, g);
  AlgoResult ref, res;
  ASSERT_OK(RunGreedy(mono, {}, &ref));
  ASSERT_OK(RunGreedy(Shard(mono, 1), {}, &res));
  EXPECT_EQ(SetToVector(res.in_set), SetToVector(ref.in_set));
}

// require_degree_sorted rejects an unsorted store with the same error
// text as an unsorted SADJ file, and accepts a sorted one.
TEST_F(ParallelGreedyTest, RequireDegreeSortedEnforcedOnShardedPath) {
  Graph g = GenerateStar(50);
  std::string manifest = Shard(WriteGraphFile(&scratch_, g), 3);
  GreedyOptions opts;
  opts.require_degree_sorted = true;
  AlgoResult res;
  Status s = RunGreedy(manifest, opts, &res);
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();
  EXPECT_NE(
      s.ToString().find("greedy requires a degree-sorted adjacency file: "),
      std::string::npos)
      << s.ToString();

  Graph g2 = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 45);
  std::string sorted_manifest = Shard(Sort(WriteGraphFile(&scratch_, g2)), 3);
  EXPECT_OK(RunGreedy(sorted_manifest, opts, &res));
}

// One scan over all shards, all shard bytes charged, and the memory of
// the SADJ path: the state array plus the result bitset, nothing per
// shard.
TEST_F(ParallelGreedyTest, IoAndMemoryCountersFold) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(10000, 2.0), 46);
  std::string manifest = Shard(Sort(WriteGraphFile(&scratch_, g)), 4);
  AlgoResult res;
  ASSERT_OK(RunGreedy(manifest, {}, &res));
  EXPECT_EQ(res.io.sequential_scans, 1u);
  EXPECT_EQ(res.io.records_decoded, g.NumVertices());
  EXPECT_GE(res.io.files_opened, 5u);  // manifest + 4 shards
  uint64_t shard_bytes = 0;
  for (uint32_t k = 0; k < 4; ++k) {
    uint64_t size = 0;
    ASSERT_OK(GetFileSize(ShardFilePath(manifest, k), &size));
    shard_bytes += size;
  }
  EXPECT_GT(res.io.bytes_read, shard_bytes);  // plus the manifest
  const uint64_t n = g.NumVertices();
  EXPECT_EQ(res.memory.CategoryBytes("state"), n);
  EXPECT_LE(res.peak_memory_bytes, n + n / 8 + 64);
}

}  // namespace
}  // namespace semis
