#include "graph/sharded_adjacency_file.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <numeric>
#include <string>
#include <vector>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "io/epoch_journal.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class ShardedAdjacencyFileTest : public ScratchTest {};

using Records = std::vector<std::pair<VertexId, std::vector<VertexId>>>;

// Reads the remaining records of an open scanner into (id, neighbors).
Records DrainScanner(AdjacencyFileScanner* scanner) {
  Records out;
  VertexRecordView rec;
  bool has_next = false;
  Status s;
  while ((s = scanner->Next(&rec, &has_next)).ok() && has_next) {
    out.emplace_back(rec.id, std::vector<VertexId>(
                                 rec.neighbors, rec.neighbors + rec.degree));
  }
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

// Reads every record of a store (a SADJ file, or every shard of a SADJS
// store in index order) into (id, neighbors).
Records Drain(const std::string& path) {
  AdjacencyFileScanner scanner;
  Status s = scanner.Open(path);
  EXPECT_TRUE(s.ok()) << s.ToString();
  if (!s.ok()) return Records();
  return DrainScanner(&scanner);
}

TEST_F(ShardedAdjacencyFileTest, RoundtripPreservesGlobalOrder) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.0), 21);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 7));
  auto expected = Drain(mono);
  auto actual = Drain(manifest);
  ASSERT_EQ(actual.size(), expected.size());
  // Concatenating the shards must reproduce the monolithic record stream
  // exactly -- ids, order, and neighbor lists.
  EXPECT_EQ(actual, expected);
}

TEST_F(ShardedAdjacencyFileTest, ManifestTotalsMatchHeader) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.2), 22);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  ASSERT_EQ(m.num_shards(), 4u);
  uint64_t records = 0, edges = 0;
  for (const ShardInfo& s : m.shards) {
    records += s.num_records;
    edges += s.num_directed_edges;
  }
  EXPECT_EQ(records, m.header.num_vertices);
  EXPECT_EQ(edges, m.header.num_directed_edges);
  EXPECT_EQ(m.header.num_vertices, g.NumVertices());
}

TEST_F(ShardedAdjacencyFileTest, ShardsAreBalancedByPayload) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(20000, 2.0), 23);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  const uint32_t kShards = 8;
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, kShards));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const uint64_t total_words =
      2 * m.header.num_vertices + m.header.num_directed_edges;
  const uint64_t budget = (total_words + kShards - 1) / kShards;
  for (uint32_t i = 0; i < kShards; ++i) {
    const uint64_t words =
        2 * m.shards[i].num_records + m.shards[i].num_directed_edges;
    // Every shard stays within budget + one max-size record of slack.
    EXPECT_LE(words, budget + 2 + m.header.max_degree) << "shard " << i;
    EXPECT_GT(m.shards[i].num_records, 0u) << "shard " << i;
  }
}

TEST_F(ShardedAdjacencyFileTest, DegreeSortedFlagSurvivesSharding) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 24);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string sorted = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(sorted, manifest, 3));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(manifest));
  EXPECT_TRUE(scanner.header().IsDegreeSorted());
  // And the records really are in ascending (degree, id) order globally.
  VertexRecordView rec;
  bool has_next = false;
  uint64_t prev_key = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
    EXPECT_GE(key, prev_key);
    prev_key = key;
  }
}

TEST_F(ShardedAdjacencyFileTest, MoreShardsThanRecordsYieldsEmptyShards) {
  Graph g = GenerateErdosRenyi(5, 4, 25);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 16));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  ASSERT_EQ(m.num_shards(), 16u);
  auto records = Drain(manifest);
  EXPECT_EQ(records.size(), 5u);
}

TEST_F(ShardedAdjacencyFileTest, SingleShardIsValid) {
  Graph g = GenerateErdosRenyi(100, 300, 26);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 1));
  EXPECT_EQ(Drain(manifest), Drain(mono));
}

TEST_F(ShardedAdjacencyFileTest, ShardCountOutOfRangeRejected) {
  Graph g = GenerateErdosRenyi(10, 9, 27);
  std::string mono = WriteGraphFile(&scratch_, g);
  EXPECT_TRUE(
      ShardAdjacencyFile(mono, NewPath("sharded"), 0).IsInvalidArgument());
  // A wrapped-negative or fat-fingered count must not ask the writer to
  // materialize millions of files.
  EXPECT_TRUE(ShardAdjacencyFile(mono, NewPath("sharded"),
                                 kMaxAdjacencyShards + 1)
                  .IsInvalidArgument());
  EXPECT_TRUE(ShardAdjacencyFile(mono, NewPath("sharded"), 0xFFFFFFFFu)
                  .IsInvalidArgument());
}

TEST_F(ShardedAdjacencyFileTest, CorruptManifestRejected) {
  // A monolithic adjacency file is not a manifest.
  Graph g = GenerateErdosRenyi(10, 9, 28);
  std::string mono = WriteGraphFile(&scratch_, g);
  ShardedAdjacencyManifest m;
  EXPECT_TRUE(ReadShardedAdjacencyManifest(mono, &m).IsCorruption());
}

// Hand-builds a 4-shard store of `records` (the record stream of the
// SADJ file `mono`) at `manifest`: [first half][empty][second half]
// [empty], so one empty shard sits inside and one trails. The sharding
// writer only produces trailing empties, but compaction can empty any
// shard.
void WriteStoreWithEmptyShards(const std::string& mono,
                               const Records& records,
                               const std::string& manifest) {
  ShardedAdjacencyManifest m;
  AdjacencyFileScanner probe;
  ASSERT_OK(probe.Open(mono));
  m.header = probe.header();
  ASSERT_OK(probe.Close());
  m.shards.resize(4);
  const size_t split = records.size() / 2;
  for (uint32_t k = 0; k < 4; ++k) {
    SequentialFileWriter writer;
    ASSERT_OK(writer.Open(ShardFilePath(manifest, k)));
    ASSERT_OK(WriteAdjacencyShardHeader(&writer, k, m.header.num_vertices));
    AdjacencyRecordEncoder encoder;
    encoder.Declare(m.header.num_vertices, m.header.num_directed_edges,
                    m.header.max_degree);
    const size_t begin = k == 0 ? 0 : (k == 2 ? split : records.size());
    const size_t end = k == 0 ? split : (k == 2 ? records.size() : begin);
    for (size_t i = begin; i < end; ++i) {
      const std::vector<VertexId>& nbrs = records[i].second;
      ASSERT_OK(encoder.Append(&writer, records[i].first, nbrs.data(),
                               static_cast<uint32_t>(nbrs.size())));
      m.shards[k].num_records++;
      m.shards[k].num_directed_edges += nbrs.size();
    }
    ASSERT_OK(writer.Close());
  }
  ASSERT_OK(WriteShardedAdjacencyManifest(manifest, m));
}

// Empty shards in the MIDDLE of the manifest (the sharding writer only
// produces trailing empties, but compaction can empty any shard): the
// scanner must cross them transparently.
TEST_F(ShardedAdjacencyFileTest, InteriorEmptyShardsYieldSequentialStream) {
  Graph g = GenerateErdosRenyi(200, 600, 36);
  std::string mono = WriteGraphFile(&scratch_, g);
  auto expected = Drain(mono);
  ASSERT_EQ(expected.size(), 200u);

  std::string manifest = NewPath("holey");
  ASSERT_NO_FATAL_FAILURE(WriteStoreWithEmptyShards(mono, expected, manifest));
  EXPECT_EQ(Drain(manifest), expected);
}

// One graph through every store format: the SADJ file, its SADJS store
// at 1, 3 and 7 shards and with interior empty shards, and a journaled
// SEPR root. Every source yields the same record stream, the scanner
// counts one sequential scan per pass, and Rewind replays the stream on
// every format.
TEST_F(ShardedAdjacencyFileTest, EveryReaderOfOneGraphYieldsOneStream) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 2.0), 40);
  std::string mono = WriteGraphFile(&scratch_, g);
  const Records expected = Drain(mono);
  ASSERT_EQ(expected.size(), g.NumVertices());

  std::vector<std::string> sources = {mono};
  for (uint32_t shards : {1u, 3u, 7u}) {
    sources.push_back(NewPath("store" + std::to_string(shards)));
    ASSERT_OK(ShardAdjacencyFile(mono, sources.back(), shards));
  }
  sources.push_back(NewPath("holey"));
  ASSERT_NO_FATAL_FAILURE(
      WriteStoreWithEmptyShards(mono, expected, sources.back()));
  // A journaled root whose epoch 1 is a 3-shard store.
  sources.push_back(NewPath("journaled"));
  ASSERT_OK(
      ShardAdjacencyFile(mono, EpochManifestPath(sources.back(), 1), 3));
  EpochRootPointer pointer;
  pointer.current_epoch = 1;
  ASSERT_OK(WriteEpochRootPointer(sources.back(), pointer));

  for (const std::string& source : sources) {
    SCOPED_TRACE(source);
    IoStats io;
    AdjacencyFileScanner scanner(&io);
    ASSERT_OK(scanner.Open(source));
    for (uint64_t pass = 1; pass <= 2; ++pass) {
      if (pass > 1) ASSERT_OK(scanner.Rewind());
      EXPECT_EQ(io.sequential_scans, pass);
      EXPECT_EQ(DrainScanner(&scanner), expected) << "pass " << pass;
      EXPECT_EQ(io.sequential_scans, pass);
      EXPECT_EQ(io.records_decoded, pass * expected.size());
    }
  }
}

// Scans `manifest` until the scanner fails or ends; returns the status
// and the number of records yielded before it.
Status ScanToEnd(const std::string& manifest, uint64_t* yielded) {
  AdjacencyFileScanner scanner;
  SEMIS_RETURN_IF_ERROR(scanner.Open(manifest));
  VertexRecordView view;
  bool has_next = false;
  *yielded = 0;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&view, &has_next));
    if (!has_next) return Status::OK();
    (*yielded)++;
  }
}

// Damage in the LAST shard is reported once the scan gets there, after
// every record of the healthy shards before it: a scan that reports
// success has read every shard.
TEST_F(ShardedAdjacencyFileTest, ErrorInALaterShardIsReported) {
  Graph g = GenerateErdosRenyi(2000, 6000, 34);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 4));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const std::string shard3 = ShardFilePath(manifest, 3);
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(shard3, &size));
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(shard3, size - 7);

  uint64_t yielded = 0;
  Status s = ScanToEnd(manifest, &yielded);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_GE(yielded, m.shards[0].num_records + m.shards[1].num_records +
                         m.shards[2].num_records);
  EXPECT_LT(yielded, g.NumVertices());
}

TEST_F(ShardedAdjacencyFileTest, TruncatedShardSurfacesThroughNext) {
  // A scan that reaches a damaged shard gets the error from Next, after
  // every record of the healthy shards before it -- never a clean end.
  Graph g = GenerateErdosRenyi(2000, 6000, 35);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 3));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  const std::string shard1 = ShardFilePath(manifest, 1);
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(shard1, &size));
  std::filesystem::resize_file(shard1, size - 7);

  uint64_t yielded = 0;
  Status s = ScanToEnd(manifest, &yielded);
  EXPECT_FALSE(s.ok()) << "scan over a truncated shard completed OK";
  EXPECT_GE(yielded, m.shards[0].num_records);
  EXPECT_LT(yielded, m.shards[0].num_records + m.shards[1].num_records);
}

TEST_F(ShardedAdjacencyFileTest, ShardReaderValidatesIndex) {
  Graph g = GenerateErdosRenyi(50, 100, 29);
  std::string mono = WriteGraphFile(&scratch_, g);
  std::string manifest = NewPath("sharded");
  ASSERT_OK(ShardAdjacencyFile(mono, manifest, 2));
  ShardedAdjacencyManifest m;
  ASSERT_OK(ReadShardedAdjacencyManifest(manifest, &m));
  AdjacencyShardReader reader;
  EXPECT_TRUE(reader.Open(manifest, m, 2).IsInvalidArgument());
}

}  // namespace
}  // namespace semis
