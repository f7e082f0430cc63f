// Background re-sort (ShardedStreamingMis::Resort): after a
// degree-changing compaction clears the degree-sorted flag, Resort must
// restore it and produce a store byte-identical to a fresh
// unshard -> degree-sort -> re-shard rebuild of the same effective
// graph -- at every thread and shard count, so the GREEDY order a
// re-sorted store serves is indistinguishable from a from-scratch
// preprocess. Exercised at 1/2/8 threads x 1/3/7 shards.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/incremental_stream.h"
#include "core/solver.h"
#include "core/verify.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/epoch_journal.h"
#include "io/file.h"
#include "test_util.h"
#include "util/random.h"

namespace semis {
namespace {

using testing_util::RandomMaximalSet;
using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

std::vector<char> ReadAllBytes(const std::string& path) {
  std::vector<char> bytes;
  SequentialFileReader r;
  EXPECT_OK(r.Open(path));
  char buf[1 << 16];
  size_t n = 0;
  do {
    EXPECT_OK(r.Read(buf, sizeof(buf), &n));
    bytes.insert(bytes.end(), buf, buf + n);
  } while (n > 0);
  EXPECT_OK(r.Close());
  return bytes;
}

std::vector<uint32_t> ToVector(const BitVector& set) {
  std::vector<uint32_t> out;
  for (size_t v = 0; v < set.size(); ++v) {
    if (set.Test(v)) out.push_back(static_cast<uint32_t>(v));
  }
  return out;
}

class ResortTest : public ScratchTest {
 protected:
  void SetUp() override {
    ScratchTest::SetUp();
    g_ = GeneratePlrg(PlrgSpec::ForVertexCount(400, 2.0), 11);
    mono_ = WriteGraphFile(&scratch_, g_);
    initial_ = RandomMaximalSet(g_, 5);
  }

  // Fresh degree-sorted store with `num_shards` shards (the state a
  // from-scratch preprocess leaves behind).
  std::string MakeSortedStore(const std::string& tag, uint32_t num_shards) {
    const std::string sorted = NewPath(tag + ".sadj");
    DegreeSortOptions sort_options;
    EXPECT_OK(BuildDegreeSortedAdjacencyFile(mono_, sorted, sort_options));
    const std::string root = NewPath(tag + ".sadjs");
    EXPECT_OK(ShardAdjacencyFile(sorted, root, num_shards));
    return root;
  }

  // The SAME degree-changing batch for every geometry: inserts plus
  // deletions of edges known to exist, so compaction genuinely breaks
  // the (degree, id) order.
  std::vector<EdgeUpdate> Updates() const {
    std::vector<EdgeUpdate> updates;
    Random rng(23);
    for (int i = 0; i < 120; ++i) {
      const auto u = static_cast<VertexId>(rng.Uniform(g_.NumVertices()));
      const auto v = static_cast<VertexId>(rng.Uniform(g_.NumVertices()));
      if (u != v) updates.push_back(EdgeUpdate::Insert(u, v));
    }
    int deletions = 0;
    for (VertexId v = 0; v < g_.NumVertices() && deletions < 40; v += 7) {
      auto neighbors = g_.Neighbors(v);
      if (neighbors.empty()) continue;
      updates.push_back(EdgeUpdate::Delete(v, neighbors[0]));
      deletions++;
    }
    return updates;
  }

  // From-scratch rebuild of the compacted store at `root`: unshard the
  // served epoch into a monolithic file, degree-sort it, re-shard with
  // the same shard count. This is the golden the re-sorted store must
  // match byte for byte.
  std::string RebuildReference(const std::string& root, const std::string& tag,
                               uint32_t num_shards) {
    IoStats io;
    AdjacencyFileScanner scanner(&io);
    EXPECT_OK(scanner.Open(root));
    const AdjacencyFileHeader& h = scanner.header();
    const std::string unsharded = NewPath(tag + ".ref.adj");
    AdjacencyFileWriter writer(&io);
    EXPECT_OK(writer.Open(unsharded, h.num_vertices, h.num_directed_edges,
                          h.max_degree, h.flags));
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      EXPECT_OK(scanner.Next(&rec, &has_next));
      if (!has_next) break;
      EXPECT_OK(writer.AppendVertex(rec.id, rec.neighbors, rec.degree));
    }
    EXPECT_OK(writer.Finish());
    const std::string sorted = NewPath(tag + ".ref.sadj");
    DegreeSortOptions sort_options;
    EXPECT_OK(BuildDegreeSortedAdjacencyFile(unsharded, sorted, sort_options));
    const std::string manifest = NewPath(tag + ".ref.sadjs");
    EXPECT_OK(ShardAdjacencyFile(sorted, manifest, num_shards));
    return manifest;
  }

  Graph g_;
  std::string mono_;
  BitVector initial_;
};

TEST_F(ResortTest, RestoresSortByteIdenticalToFreshRebuildEverywhere) {
  const uint32_t shard_counts[] = {1, 3, 7};
  const uint32_t thread_counts[] = {1, 2, 8};
  for (uint32_t num_shards : shard_counts) {
    // Shard bytes and solve output must agree across thread counts for a
    // fixed shard count (and match the fresh rebuild, checked per
    // geometry). Across shard counts the bytes differ by construction
    // (different split points), and the swap stage's round structure is
    // geometry-dependent, so no cross-shard-count solve identity is
    // asserted -- that is not part of the determinism contract.
    std::vector<std::vector<char>> shard_reference;
    std::vector<uint32_t> solve_reference;
    for (uint32_t num_threads : thread_counts) {
      SCOPED_TRACE("shards=" + std::to_string(num_shards) +
                   " threads=" + std::to_string(num_threads));
      const std::string tag =
          "s" + std::to_string(num_shards) + "t" + std::to_string(num_threads);
      const std::string root = MakeSortedStore(tag, num_shards);
      EnginePipelineOptions options;
      options.num_threads = num_threads;
      ShardedStreamingMis mis;
      ASSERT_OK(mis.Initialize(root, initial_, options));
      ASSERT_OK(mis.ApplyBatch(Updates()));
      ASSERT_OK(mis.Repair());
      ASSERT_OK(mis.Compact(/*force=*/true));

      // The degree-changing compaction cleared the flag.
      ShardedAdjacencyManifest manifest;
      ASSERT_OK(ReadShardStoreManifest(root, &manifest));
      ASSERT_FALSE(manifest.header.IsDegreeSorted());

      const std::string reference = RebuildReference(root, tag, num_shards);
      ASSERT_OK(mis.Resort());
      EXPECT_EQ(mis.stats().resorts, 1u);
      ASSERT_OK(ReadShardStoreManifest(root, &manifest));
      EXPECT_TRUE(manifest.header.IsDegreeSorted());

      ResolvedShardStore store;
      ASSERT_OK(ResolveShardStore(root, &store));
      EXPECT_EQ(ReadAllBytes(store.manifest_path), ReadAllBytes(reference));
      for (uint32_t k = 0; k < num_shards; ++k) {
        SCOPED_TRACE("shard " + std::to_string(k));
        std::vector<char> bytes =
            ReadAllBytes(ShardFilePath(store.manifest_path, k));
        EXPECT_EQ(bytes, ReadAllBytes(ShardFilePath(reference, k)));
        if (shard_reference.size() <= k) {
          shard_reference.push_back(bytes);
        } else {
          EXPECT_EQ(bytes, shard_reference[k]);
        }
      }
      // The re-sorted store left nothing behind (runs, staging, stale
      // epochs beyond the kept previous one).
      std::vector<std::string> orphans;
      ASSERT_OK(ListShardStoreOrphans(store, &orphans));
      EXPECT_TRUE(orphans.empty()) << orphans.front();

      // The maintained set is still valid over the re-sorted store, and
      // a from-scratch solve is geometry-independent.
      VerifyResult verified;
      ASSERT_OK(VerifyIndependentSetShardedFile(root, mis.set(), &verified));
      EXPECT_TRUE(verified.independent && verified.maximal);
      SolverOptions solver_options;
      solver_options.pipeline.num_threads = num_threads;
      Solver solver{solver_options};
      SolveResult result;
      ASSERT_OK(solver.SolveShardedFile(root, &result));
      SolveResult fresh;
      ASSERT_OK(solver.SolveShardedFile(reference, &fresh));
      std::vector<uint32_t> members = ToVector(result.set);
      EXPECT_EQ(members, ToVector(fresh.set));
      if (solve_reference.empty()) {
        solve_reference = members;
      } else {
        EXPECT_EQ(members, solve_reference);
      }
    }
  }
}

TEST_F(ResortTest, AutoResortRunsOffTheBackOfCompaction) {
  const std::string root = MakeSortedStore("auto", 3);
  EnginePipelineOptions options;
  options.auto_resort = true;
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial_, options));
  ASSERT_OK(mis.ApplyBatch(Updates()));
  ASSERT_OK(mis.Repair());
  // Compact clears the flag, then chains straight into the re-sort and
  // publishes the sorted epoch.
  ASSERT_OK(mis.Compact(/*force=*/true));
  EXPECT_EQ(mis.stats().resorts, 1u);
  ShardedAdjacencyManifest manifest;
  ASSERT_OK(ReadShardStoreManifest(root, &manifest));
  EXPECT_TRUE(manifest.header.IsDegreeSorted());
}

TEST_F(ResortTest, ResortIsANoOpOnASortedStore) {
  const std::string root = MakeSortedStore("noop", 3);
  ShardedStreamingMis mis;
  ASSERT_OK(mis.Initialize(root, initial_, EnginePipelineOptions{}));
  ASSERT_OK(mis.Resort());
  EXPECT_EQ(mis.stats().resorts, 0u);
  // Nothing was published: the store is still the legacy layout.
  uint32_t magic = 0;
  ASSERT_OK(ProbeFileMagic(root, &magic));
  EXPECT_EQ(magic, kShardManifestMagic);
}

TEST_F(ResortTest, ResortSurvivesARestartBetweenBatches) {
  // Stream, compact, re-sort, then hand the store to a fresh session:
  // the epoch-journaled root plus the restored order must let it pick up
  // exactly where the first session stopped.
  const std::string root = MakeSortedStore("restart", 3);
  EnginePipelineOptions options;
  options.num_threads = 2;
  ShardedStreamingMis first;
  ASSERT_OK(first.Initialize(root, initial_, options));
  ASSERT_OK(first.ApplyBatch(Updates()));
  ASSERT_OK(first.Repair());
  ASSERT_OK(first.Compact(/*force=*/true));
  ASSERT_OK(first.Resort());

  ShardedStreamingMis second;
  ASSERT_OK(second.Initialize(root, first.set(), options));
  EXPECT_EQ(ToVector(second.set()), ToVector(first.set()));
  ASSERT_OK(second.Repair());
  VerifyResult verified;
  ASSERT_OK(VerifyIndependentSetShardedFile(root, second.set(), &verified));
  EXPECT_TRUE(verified.independent && verified.maximal);
}

}  // namespace
}  // namespace semis
