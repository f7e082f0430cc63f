#include "graph/degree_sort.h"

#include <gtest/gtest.h>

#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/graph_io.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;
using testing_util::WriteGraphFile;

class DegreeSortTest : public ScratchTest {};

TEST_F(DegreeSortTest, RecordsComeOutInDegreeIdOrder) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(2000, 2.0), 17);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));

  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  EXPECT_TRUE(scanner.header().IsDegreeSorted());
  EXPECT_EQ(scanner.header().num_vertices, g.NumVertices());
  EXPECT_EQ(scanner.header().num_directed_edges, g.NumDirectedEdges());

  VertexRecordView rec;
  bool has_next = false;
  uint64_t prev_key = 0;
  uint64_t records = 0;
  BitVector seen(g.NumVertices());
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    uint64_t key = (static_cast<uint64_t>(rec.degree) << 32) | rec.id;
    EXPECT_GE(key, prev_key);
    prev_key = key;
    EXPECT_EQ(rec.degree, g.Degree(rec.id));  // lists travel with their id
    EXPECT_FALSE(seen.Test(rec.id));          // each vertex exactly once
    seen.Set(rec.id);
    records++;
  }
  EXPECT_EQ(records, g.NumVertices());
}

TEST_F(DegreeSortTest, GraphContentUnchanged) {
  Graph g = GenerateErdosRenyi(500, 2000, 3);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, {}));
  Graph back;
  ASSERT_OK(ReadGraphFromAdjacencyFile(output, &back));
  ASSERT_EQ(back.NumVertices(), g.NumVertices());
  ASSERT_EQ(back.NumEdges(), g.NumEdges());
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    auto na = g.Neighbors(v);
    auto nb = back.Neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()));
  }
}

TEST_F(DegreeSortTest, TinyMemoryBudgetForcesExternalRuns) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(3000, 1.9), 5);
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  opts.memory_budget_bytes = 2048;  // many spill runs
  opts.fan_in = 3;                  // and multiple merge passes
  IoStats stats;
  opts.stats = &stats;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));
  EXPECT_GT(stats.sort_passes, 1u);

  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  VertexRecordView rec;
  bool has_next = false;
  uint32_t prev_degree = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    EXPECT_GE(rec.degree, prev_degree);
    prev_degree = rec.degree;
  }
}

TEST_F(DegreeSortTest, IoCostPropotionalToScans) {
  Graph g = GeneratePlrg(PlrgSpec::ForVertexCount(5000, 2.1), 29);
  std::string input = WriteGraphFile(&scratch_, g);
  uint64_t file_size = 0;
  ASSERT_OK(GetFileSize(input, &file_size));
  std::string output = NewPath("sorted");
  DegreeSortOptions opts;
  IoStats stats;
  opts.stats = &stats;
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, opts));
  // One read of the input + one write of the output, +- headers and runs:
  // with an in-memory-sized budget the total traffic stays within 3x the
  // file size (the paper's "few sequential scans" claim).
  EXPECT_LE(stats.bytes_read, 3 * file_size);
  EXPECT_LE(stats.bytes_written, 3 * file_size);
}

TEST_F(DegreeSortTest, EmptyGraph) {
  Graph g = Graph::FromEdges(0, {});
  std::string input = WriteGraphFile(&scratch_, g);
  std::string output = NewPath("sorted");
  ASSERT_OK(BuildDegreeSortedAdjacencyFile(input, output, {}));
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(output));
  EXPECT_EQ(scanner.header().num_vertices, 0u);
}

}  // namespace
}  // namespace semis
