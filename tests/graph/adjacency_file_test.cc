#include "graph/adjacency_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class AdjacencyFileTest : public ScratchTest {};

// The file reader's default buffer: records straddling it or larger than
// it exercise the read window's slide and growth.
constexpr size_t kReaderBuffer = 1 << 20;
constexpr size_t kHeaderBytes = 32;

// Writes a SADJ header followed by `words` verbatim, so tests can plant
// records the encoder would refuse.
void WriteRawSadj(const std::string& path, uint64_t num_vertices,
                  uint64_t directed_edges, uint32_t max_degree,
                  const std::vector<uint32_t>& words) {
  SequentialFileWriter w;
  ASSERT_OK(w.Open(path));
  ASSERT_OK(w.AppendU32(kAdjacencyFileMagic));
  ASSERT_OK(w.AppendU32(1));  // version
  ASSERT_OK(w.AppendU64(num_vertices));
  ASSERT_OK(w.AppendU64(directed_edges));
  ASSERT_OK(w.AppendU32(0));  // flags
  ASSERT_OK(w.AppendU32(max_degree));
  ASSERT_OK(w.Append(words.data(), words.size() * sizeof(uint32_t)));
  ASSERT_OK(w.Close());
}

// 3000 records of degree 100 (408 bytes each): record 2569 straddles the
// end of the first 1 MiB buffer.
constexpr uint32_t kWideVertices = 3000;
constexpr uint32_t kWideDegree = 100;

VertexId WideNeighbor(VertexId id, uint32_t j) {
  return (id + 1 + j) % kWideVertices;
}

std::string WriteWideFile(const std::string& path) {
  AdjacencyFileWriter w;
  EXPECT_OK(w.Open(path, kWideVertices,
                   uint64_t{kWideVertices} * kWideDegree, kWideDegree, 0));
  std::vector<VertexId> nbrs(kWideDegree);
  for (VertexId id = 0; id < kWideVertices; ++id) {
    for (uint32_t j = 0; j < kWideDegree; ++j) nbrs[j] = WideNeighbor(id, j);
    EXPECT_OK(w.AppendVertex(id, nbrs.data(), kWideDegree));
  }
  EXPECT_OK(w.Finish());
  return path;
}

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

TEST_F(AdjacencyFileTest, RecordStraddlingTheBufferEndDecodes) {
  const size_t record_bytes = 8 + 4 * kWideDegree;
  const size_t straddler = (kReaderBuffer - kHeaderBytes) / record_bytes;
  ASSERT_LT(kHeaderBytes + straddler * record_bytes, kReaderBuffer);
  ASSERT_GT(kHeaderBytes + (straddler + 1) * record_bytes, kReaderBuffer);
  ASSERT_LT(straddler, kWideVertices);
  const std::string path = WriteWideFile(NewPath("wide"));

  // Next: views into the read window, across the slide.
  IoStats stats;
  AdjacencyFileScanner scanner(&stats);
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = false;
  for (VertexId id = 0; id < kWideVertices; ++id) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    ASSERT_TRUE(has_next);
    ASSERT_EQ(rec.id, id);
    ASSERT_EQ(rec.degree, kWideDegree);
    for (uint32_t j = 0; j < kWideDegree; ++j) {
      ASSERT_EQ(rec.neighbor(j), WideNeighbor(id, j)) << id << "/" << j;
    }
  }
  ASSERT_OK(scanner.Next(&rec, &has_next));
  EXPECT_FALSE(has_next);
  EXPECT_EQ(stats.records_decoded, kWideVertices);
  EXPECT_EQ(stats.bytes_read, kHeaderBytes + kWideVertices * record_bytes);
}

TEST_F(AdjacencyFileTest, RecordLargerThanTheBufferDecodes) {
  // A star whose center record (8 + 4 * 300000 bytes) is larger than the
  // 1 MiB read buffer, written after some leaves so it also straddles.
  constexpr uint32_t kLeaves = 300000;
  static_assert(size_t{kLeaves} * 4 > kReaderBuffer);
  constexpr uint32_t kLeavesFirst = 1000;
  const std::string path = NewPath("star");
  std::vector<VertexId> leaves(kLeaves);
  for (uint32_t i = 0; i < kLeaves; ++i) leaves[i] = i + 1;
  {
    AdjacencyFileWriter w;
    ASSERT_OK(w.Open(path, kLeaves + 1, 2ull * kLeaves, kLeaves, 0));
    const VertexId center[] = {0};
    for (VertexId v = 1; v <= kLeavesFirst; ++v) {
      ASSERT_OK(w.AppendVertex(v, center, 1));
    }
    ASSERT_OK(w.AppendVertex(0, leaves.data(), kLeaves));
    for (VertexId v = kLeavesFirst + 1; v <= kLeaves; ++v) {
      ASSERT_OK(w.AppendVertex(v, center, 1));
    }
    ASSERT_OK(w.Finish());
  }
  auto check_center = [&](const VertexRecordView& rec) {
    ASSERT_EQ(rec.id, 0u);
    ASSERT_EQ(rec.degree, kLeaves);
    EXPECT_TRUE(std::equal(rec.begin(), rec.end(), leaves.begin()));
  };

  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = false;
  uint64_t records = 0;
  while (true) {
    ASSERT_OK(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (records++ == kLeavesFirst) check_center(rec);
  }
  EXPECT_EQ(records, kLeaves + 1ull);
}

TEST_F(AdjacencyFileTest, BadRecordLeavesViewAndBlockUntouched) {
  // A good record, then a bad one that sits whole in the buffer: the
  // decode fails with the record's Corruption message and the caller's
  // view does not change.
  struct Case {
    const char* name;
    std::vector<uint32_t> bad;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"neighbor", {1, 1, 9}, "neighbor id out of range"},
      {"id", {7, 1, 0}, "record id out of range"},
      {"degree", {1, 5, 0}, "record degree exceeds header max_degree"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::string path = NewPath(c.name);
    std::vector<uint32_t> words = {0, 1, 1};  // id 0, degree 1, {1}
    words.insert(words.end(), c.bad.begin(), c.bad.end());
    WriteRawSadj(path, 2, 2, 1, words);
    const std::string expected =
        std::string(c.message) + " in '" + path + "'";

    AdjacencyFileScanner scanner;
    ASSERT_OK(scanner.Open(path));
    VertexRecordView rec;
    bool has_next = false;
    ASSERT_OK(scanner.Next(&rec, &has_next));
    ASSERT_TRUE(has_next);
    const VertexRecordView good = rec;
    Status s = scanner.Next(&rec, &has_next);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_EQ(s.message(), expected);
    EXPECT_EQ(rec.id, good.id);
    EXPECT_EQ(rec.degree, good.degree);
    EXPECT_EQ(rec.neighbors, good.neighbors);
    EXPECT_EQ(rec.neighbor(0), 1u);
  }
}

TEST_F(AdjacencyFileTest, TruncationNamesTheFieldItCuts) {
  // A record cut inside its id, its degree or its neighbors reports the
  // field, the same messages a field-by-field reader gives.
  struct Case {
    std::vector<uint32_t> words;
    size_t drop_bytes;  // cut from the end of the file
    std::string wanted;
  };
  const std::vector<Case> cases = {
      {{0, 1, 1, 1}, 2, "(wanted 4 bytes, got 2)"},     // inside the id
      {{0, 1, 1, 1, 1}, 2, "(wanted 4 bytes, got 2)"},  // inside the degree
      {{0, 1, 1, 1, 1, 0}, 2, "(wanted 4 bytes, got 2)"},  // in neighbors
      {{0, 1, 1}, 0, "truncated: expected 2 records, found 1"},
  };
  for (const Case& c : cases) {
    const std::string path = NewPath("cut");
    std::vector<char> bytes(c.words.size() * 4);
    std::memcpy(bytes.data(), c.words.data(), bytes.size());
    bytes.resize(bytes.size() - c.drop_bytes);
    {
      SequentialFileWriter w;
      ASSERT_OK(w.Open(path));
      ASSERT_OK(w.AppendU32(kAdjacencyFileMagic));
      ASSERT_OK(w.AppendU32(1));
      ASSERT_OK(w.AppendU64(2));
      ASSERT_OK(w.AppendU64(2));
      ASSERT_OK(w.AppendU32(0));
      ASSERT_OK(w.AppendU32(1));
      ASSERT_OK(w.Append(bytes.data(), bytes.size()));
      ASSERT_OK(w.Close());
    }
    AdjacencyFileScanner scanner;
    ASSERT_OK(scanner.Open(path));
    VertexRecordView rec;
    bool has_next = false;
    ASSERT_OK(scanner.Next(&rec, &has_next));
    Status s = scanner.Next(&rec, &has_next);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(s.message().find(c.wanted), std::string::npos) << s.ToString();
  }
}

TEST_F(AdjacencyFileTest, ReadFaultOnMidRecordRefillIsIOError) {
  // Read #1 fills the first buffer; the record straddling its end needs
  // read #2, which fails. The scan must end in IOError -- never in a
  // clean end of file -- and keep reporting it.
  const std::string path = WriteWideFile(NewPath("wide"));
  FaultInjectionFileSystem fs(PosixFileSystem(), [] {
    FaultSpec spec;
    Status s = FaultSpec::Parse("read:2:EIO:sticky", &spec);
    EXPECT_TRUE(s.ok()) << s.ToString();
    return spec;
  }());
  ScopedFileSystem scoped(&fs);
  AdjacencyFileScanner scanner;
  ASSERT_OK(scanner.Open(path));
  VertexRecordView rec;
  bool has_next = false;
  Status s;
  uint64_t records = 0;
  while ((s = scanner.Next(&rec, &has_next)).ok() && has_next) records++;
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_LT(records, kWideVertices);
  EXPECT_TRUE(scanner.Next(&rec, &has_next).IsIOError());
}

}  // namespace
}  // namespace semis
