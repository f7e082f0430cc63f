#include "graph/adjacency_file.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/sharded_adjacency_file.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class AdjacencyFileTest : public ScratchTest {};

TEST_F(AdjacencyFileTest, WriteAndScanRoundtrip) {
  std::string path = NewPath("adj");
  IoStats stats;
  {
    AdjacencyFileWriter w(&stats);
    ASSERT_OK(w.Open(path, 3, 4, 2, kAdjFlagDegreeSorted));
    VertexId n0[] = {1, 2};
    VertexId n1[] = {0};
    VertexId n2[] = {0};
    ASSERT_OK(w.AppendVertex(1, n1, 1));
    ASSERT_OK(w.AppendVertex(2, n2, 1));
    ASSERT_OK(w.AppendVertex(0, n0, 2));
    ASSERT_OK(w.Finish());
  }
  AdjacencyFileScanner scanner(&stats);
  ASSERT_OK(scanner.Open(path));
  EXPECT_EQ(scanner.header().num_vertices, 3u);
  EXPECT_EQ(scanner.header().num_directed_edges, 4u);
  EXPECT_EQ(scanner.header().max_degree, 2u);
  EXPECT_TRUE(scanner.header().IsDegreeSorted());

  VertexRecordView rec;
  bool has_next = false;
  ASSERT_OK(scanner.Next(&rec, &has_next));
  ASSERT_TRUE(has_next);
  EXPECT_EQ(rec.id, 1u);  // file order preserved, not id order
  EXPECT_EQ(rec.degree, 1u);
  EXPECT_EQ(rec.neighbors[0], 0u);
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_EQ(rec.id, 2u);
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_EQ(rec.id, 0u);
  EXPECT_EQ(rec.degree, 2u);
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_FALSE(has_next);
  EXPECT_EQ(stats.sequential_scans, 1u);
}

TEST_F(AdjacencyFileTest, RewindCountsScan) {
  std::string path = NewPath("adj");
  IoStats stats;
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(path, 1, 0, 0, 0));
    ASSERT_OK(w.AppendVertex(0, nullptr, 0));
    ASSERT_OK(w.Finish());
  }
  AdjacencyFileScanner scanner(&stats);
  ASSERT_OK(scanner.Open(path));
  ASSERT_OK(scanner.Rewind());
  ASSERT_OK(scanner.Rewind());
  EXPECT_EQ(stats.sequential_scans, 3u);
  VertexRecordView rec;
  bool has_next = false;
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_TRUE(has_next);
  EXPECT_EQ(rec.id, 0u);
}

TEST_F(AdjacencyFileTest, WriterValidatesCounts) {
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(NewPath("v"), 2, 0, 0, 0));
    ASSERT_OK(w.AppendVertex(0, nullptr, 0));
    EXPECT_TRUE(w.Finish().IsInvalidArgument());  // missing one vertex
  }
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(NewPath("e"), 1, 5, 5, 0));
    ASSERT_OK(w.AppendVertex(0, nullptr, 0));
    EXPECT_TRUE(w.Finish().IsInvalidArgument());  // declared 5 edges
  }
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(NewPath("r"), 1, 0, 0, 0));
    EXPECT_TRUE(w.AppendVertex(3, nullptr, 0).IsInvalidArgument());
  }
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(NewPath("d"), 2, 2, 0, 0));  // max_degree 0
    VertexId nb[] = {1};
    EXPECT_TRUE(w.AppendVertex(0, nb, 1).IsInvalidArgument());
  }
}

TEST_F(AdjacencyFileTest, BadMagicRejected) {
  std::string path = NewPath("junk");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    for (int i = 0; i < 10; ++i) ASSERT_OK(w.AppendU32(0x12345678));
    ASSERT_OK(w.Close());
  }
  AdjacencyFileScanner scanner;
  EXPECT_TRUE(scanner.Open(path).IsCorruption());
}

TEST_F(AdjacencyFileTest, TruncatedFileDetected) {
  std::string full = NewPath("full");
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(full, 2, 2, 1, 0));
    VertexId n0[] = {1};
    VertexId n1[] = {0};
    ASSERT_OK(w.AppendVertex(0, n0, 1));
    ASSERT_OK(w.AppendVertex(1, n1, 1));
    ASSERT_OK(w.Finish());
  }
  // Copy all but the last 6 bytes.
  std::string truncated = NewPath("trunc");
  {
    uint64_t size = 0;
    ASSERT_OK(GetFileSize(full, &size));
    SequentialFileReader r;
    ASSERT_OK(r.Open(full));
    std::vector<char> bytes(size - 6);
    ASSERT_OK(r.ReadExact(bytes.data(), bytes.size()));
    SequentialFileWriter w;
    ASSERT_OK(w.Open(truncated));
    ASSERT_OK(w.Append(bytes.data(), bytes.size()));
    ASSERT_OK(w.Close());
  }
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(truncated));
  VertexRecordView rec;
  bool has_next = false;
  Status s = scanner.Next(&rec, &has_next);  // first record is intact
  if (s.ok()) s = scanner.Next(&rec, &has_next);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(AdjacencyFileTest, OutOfRangeNeighborDetected) {
  std::string path = NewPath("oor");
  {
    // Hand-craft a file whose record references vertex 9 out of 2.
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(0x4A444153u));  // magic
    ASSERT_OK(w.AppendU32(1));            // version
    ASSERT_OK(w.AppendU64(2));            // vertices
    ASSERT_OK(w.AppendU64(2));            // directed edges
    ASSERT_OK(w.AppendU32(0));            // flags
    ASSERT_OK(w.AppendU32(1));            // max degree
    ASSERT_OK(w.AppendU32(0));            // id
    ASSERT_OK(w.AppendU32(1));            // degree
    ASSERT_OK(w.AppendU32(9));            // neighbor out of range
    ASSERT_OK(w.AppendU32(1));
    ASSERT_OK(w.AppendU32(0));
    ASSERT_OK(w.Close());
  }
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = false;
  EXPECT_TRUE(scanner.Next(&rec, &has_next).IsCorruption());
}

TEST_F(AdjacencyFileTest, EdgeTotalShortfallDetected) {
  // Regression: a header declaring more directed edges than its records
  // hold used to scan OK, so every algorithm accepted it and sharding
  // then blamed its own writer ("edge count mismatch"). The records must
  // add up to the header's total, as in a shard.
  std::string path = NewPath("short");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(0x4A444153u));  // magic
    ASSERT_OK(w.AppendU32(1));            // version
    ASSERT_OK(w.AppendU64(2));            // vertices
    ASSERT_OK(w.AppendU64(4));            // directed edges: 2 too many
    ASSERT_OK(w.AppendU32(0));            // flags
    ASSERT_OK(w.AppendU32(1));            // max degree
    ASSERT_OK(w.AppendU32(0));            // id
    ASSERT_OK(w.AppendU32(1));            // degree
    ASSERT_OK(w.AppendU32(1));
    ASSERT_OK(w.AppendU32(1));            // id
    ASSERT_OK(w.AppendU32(1));            // degree
    ASSERT_OK(w.AppendU32(0));
    ASSERT_OK(w.Close());
  }
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = false;
  ASSERT_OK(scanner.Next(&rec, &has_next));  // both records are intact
  ASSERT_OK(scanner.Next(&rec, &has_next));
  Status s = scanner.Next(&rec, &has_next);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();

  s = ShardAdjacencyFile(path, NewPath("short.sadjs"), 2);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(AdjacencyFileTest, UnsupportedVersionRejected) {
  std::string path = NewPath("ver");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(0x4A444153u));
    ASSERT_OK(w.AppendU32(99));  // future version
    ASSERT_OK(w.AppendU64(0));
    ASSERT_OK(w.AppendU64(0));
    ASSERT_OK(w.AppendU32(0));
    ASSERT_OK(w.AppendU32(0));
    ASSERT_OK(w.Close());
  }
  AdjacencyFileScanner scanner;
  Status s = scanner.Open(path);
  EXPECT_EQ(s.code(), Status::Code::kNotSupported);
}

TEST_F(AdjacencyFileTest, EmptyGraphFile) {
  std::string path = NewPath("empty");
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(path, 0, 0, 0, 0));
    ASSERT_OK(w.Finish());
  }
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = true;
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_FALSE(has_next);
}

}  // namespace
}  // namespace semis
