#include "io/file.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

#include "io/env.h"
#include "test_util.h"

namespace semis {
namespace {

using testing_util::ScratchTest;

class FileTest : public ScratchTest {};

FaultSpec MustParseSpec(const std::string& spec) {
  FaultSpec out;
  Status s = FaultSpec::Parse(spec, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out;
}

TEST_F(FileTest, WriteReadRoundtrip) {
  std::string path = NewPath("roundtrip");
  IoStats stats;
  {
    SequentialFileWriter w(&stats);
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(0xDEADBEEF));
    ASSERT_OK(w.AppendU64(0x0123456789ABCDEFull));
    const char text[] = "hello";
    ASSERT_OK(w.Append(text, 5));
    EXPECT_EQ(w.BytesWritten(), 4u + 8u + 5u);
    ASSERT_OK(w.Close());
  }
  {
    SequentialFileReader r(&stats);
    ASSERT_OK(r.Open(path));
    uint32_t u32 = 0;
    uint64_t u64 = 0;
    char buf[6] = {0};
    ASSERT_OK(r.ReadU32(&u32));
    ASSERT_OK(r.ReadU64(&u64));
    ASSERT_OK(r.ReadExact(buf, 5));
    EXPECT_EQ(u32, 0xDEADBEEF);
    EXPECT_EQ(u64, 0x0123456789ABCDEFull);
    EXPECT_EQ(std::string(buf), "hello");
    EXPECT_TRUE(r.AtEof());
  }
  EXPECT_EQ(stats.bytes_written, 17u);
  EXPECT_EQ(stats.bytes_read, 17u);
  EXPECT_EQ(stats.files_opened, 2u);
}

TEST_F(FileTest, LargePayloadCrossesBufferBoundary) {
  std::string path = NewPath("large");
  std::vector<uint32_t> data(300000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<uint32_t>(i);
  {
    SequentialFileWriter w(nullptr, /*buffer_bytes=*/4096);  // tiny buffer
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append(data.data(), data.size() * sizeof(uint32_t)));
    ASSERT_OK(w.Close());
  }
  std::vector<uint32_t> back(data.size());
  SequentialFileReader r(nullptr, /*buffer_bytes=*/4096);
  ASSERT_OK(r.Open(path));
  ASSERT_OK(r.ReadExact(back.data(), back.size() * sizeof(uint32_t)));
  EXPECT_TRUE(r.AtEof());
  EXPECT_EQ(back, data);
}

TEST_F(FileTest, IoCallCountersCountRawFileCalls) {
  // read_calls and write_calls count RawFile::Read and RawFile::Write
  // calls, not API calls: 3 MiB through 1 MiB buffers is three transfers
  // each way, however finely the caller slices it.
  constexpr size_t kBuffer = 1 << 20;
  constexpr size_t kSize = 3 * kBuffer;
  constexpr size_t kChunk = 4096;
  std::string path = NewPath("counted");
  std::vector<char> chunk(kChunk, 'x');
  IoStats written;
  {
    SequentialFileWriter w(&written, kBuffer);
    ASSERT_OK(w.Open(path));
    for (size_t i = 0; i < kSize / kChunk; ++i) {
      ASSERT_OK(w.Append(chunk.data(), kChunk));
    }
    ASSERT_OK(w.Close());
  }
  EXPECT_EQ(written.write_calls, (kSize + kBuffer - 1) / kBuffer);
  EXPECT_EQ(written.bytes_written, kSize);

  IoStats read;
  SequentialFileReader r(&read, kBuffer);
  ASSERT_OK(r.Open(path));
  for (size_t i = 0; i < kSize / kChunk; ++i) {
    ASSERT_OK(r.ReadExact(chunk.data(), kChunk));
  }
  EXPECT_EQ(read.read_calls, (kSize + kBuffer - 1) / kBuffer);
  EXPECT_EQ(read.bytes_read, kSize);
  // Finding the end of a file that filled the last buffer exactly takes
  // one more (empty) read, and it is counted like any other.
  EXPECT_TRUE(r.AtEof());
  EXPECT_EQ(read.read_calls, kSize / kBuffer + 1);
  EXPECT_EQ(read.bytes_read, kSize);
}

TEST_F(FileTest, WindowSlidesGrowsAndConsumes) {
  // Words 0..N-1 in a file read through a 64-byte buffer: windows that
  // straddle the buffer end slide and refill, one larger than the buffer
  // grows it, and every window views the file's words in place.
  constexpr uint32_t kWords = 1000;
  std::string path = NewPath("window");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    for (uint32_t i = 0; i < kWords; ++i) ASSERT_OK(w.AppendU32(i));
    ASSERT_OK(w.Close());
  }
  IoStats stats;
  SequentialFileReader r(&stats, /*buffer_bytes=*/64);
  ASSERT_OK(r.Open(path));
  uint32_t next = 0;
  for (size_t words : {3u, 12u, 7u, 40u, 1u, 100u, 16u}) {
    const char* window = nullptr;
    ASSERT_OK(r.Window(words * sizeof(uint32_t), &window));
    const uint32_t* w = reinterpret_cast<const uint32_t*>(window);
    for (size_t i = 0; i < words; ++i) ASSERT_EQ(w[i], next + i) << words;
    r.Consume(words * sizeof(uint32_t));
    next += static_cast<uint32_t>(words);
  }
  EXPECT_EQ(r.BytesRead(), next * sizeof(uint32_t));
  EXPECT_EQ(stats.bytes_read, next * sizeof(uint32_t));
  // A window reaching past the end of the file is Corruption, like
  // ReadExact, and leaves the rest of the file buffered.
  const char* window = nullptr;
  Status s = r.Window((kWords - next + 1) * sizeof(uint32_t), &window);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_EQ(r.Buffered(), (kWords - next) * sizeof(uint32_t));
  ASSERT_OK(r.Window(r.Buffered(), &window));
  r.Consume(r.Buffered());
  EXPECT_TRUE(r.AtEof());

  // A closed reader keeps no window, even over bytes it had buffered.
  SequentialFileReader closed;
  ASSERT_OK(closed.Open(path));
  ASSERT_OK(closed.Window(8, &window));
  ASSERT_OK(closed.Close());
  EXPECT_TRUE(closed.Window(8, &window).IsInvalidArgument());
}

TEST_F(FileTest, WindowRefillFaultIsIOErrorNotEof) {
  std::string path = NewPath("window-fault");
  std::vector<char> data(10000, 'a');
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append(data.data(), data.size()));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("read:2:EIO:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r(nullptr, /*buffer_bytes=*/4096);
  ASSERT_OK(r.Open(path));
  const char* window = nullptr;
  ASSERT_OK(r.Window(4000, &window));
  r.Consume(4000);
  // The next window straddles the buffer end; its refill is read #2.
  EXPECT_TRUE(r.Window(200, &window).IsIOError());
  EXPECT_FALSE(r.AtEof()) << "an I/O error must not read as end of file";
  EXPECT_TRUE(r.Window(8, &window).IsIOError());
  EXPECT_TRUE(r.Close().IsIOError());
}

TEST_F(FileTest, ReserveBuildsBytesInPlace) {
  // Reservations that fit, that need a flush first, and one larger than
  // the buffer (which grows it) all land in order.
  std::string path = NewPath("reserve");
  IoStats stats;
  std::vector<uint32_t> expected;
  {
    SequentialFileWriter w(&stats, /*buffer_bytes=*/64);
    ASSERT_OK(w.Open(path));
    for (size_t words : {4u, 10u, 5u, 100u, 3u}) {
      char* dst = nullptr;
      ASSERT_OK(w.Reserve(words * sizeof(uint32_t), &dst));
      for (size_t i = 0; i < words; ++i) {
        const uint32_t v = static_cast<uint32_t>(expected.size());
        std::memcpy(dst + i * sizeof(uint32_t), &v, sizeof(v));
        expected.push_back(v);
      }
    }
    EXPECT_EQ(w.BytesWritten(), expected.size() * sizeof(uint32_t));
    ASSERT_OK(w.Close());
  }
  EXPECT_EQ(stats.bytes_written, expected.size() * sizeof(uint32_t));
  std::vector<uint32_t> back(expected.size());
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  ASSERT_OK(r.ReadExact(back.data(), back.size() * sizeof(uint32_t)));
  EXPECT_TRUE(r.AtEof());
  EXPECT_EQ(back, expected);
}

TEST_F(FileTest, ReadExactOnTruncatedFileIsCorruption) {
  std::string path = NewPath("short");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.AppendU32(7));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  uint64_t v = 0;
  Status s = r.ReadU64(&v);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
}

TEST_F(FileTest, OpenMissingFileFails) {
  SequentialFileReader r;
  Status s = r.Open(NewPath("does-not-exist"));
  EXPECT_FALSE(s.ok());
}

TEST_F(FileTest, PartialReadReportsCount) {
  std::string path = NewPath("partial");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  char buf[10];
  size_t got = 0;
  ASSERT_OK(r.Read(buf, 10, &got));
  EXPECT_EQ(got, 3u);
  ASSERT_OK(r.Read(buf, 10, &got));
  EXPECT_EQ(got, 0u);
}

TEST_F(FileTest, EmptyFileIsImmediatelyEof) {
  std::string path = NewPath("empty");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Close());
  }
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  EXPECT_TRUE(r.AtEof());
}

TEST_F(FileTest, GetFileSizeAndRemove) {
  std::string path = NewPath("sized");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("0123456789", 10));
    ASSERT_OK(w.Close());
  }
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(path, &size));
  EXPECT_EQ(size, 10u);
  ASSERT_OK(RemoveFileIfExists(path));
  EXPECT_FALSE(GetFileSize(path, &size).ok());
  ASSERT_OK(RemoveFileIfExists(path));  // second remove is fine
}

TEST_F(FileTest, DoubleOpenRejected) {
  std::string path = NewPath("dbl");
  SequentialFileWriter w;
  ASSERT_OK(w.Open(path));
  EXPECT_TRUE(w.Open(path).IsInvalidArgument());
  ASSERT_OK(w.Close());
}

// --------------------------------------------------- error-path contract --

TEST_F(FileTest, MidFileReadErrorIsSurfacedNotTruncated) {
  // Regression: a read error after the first buffer fill used to be
  // swallowed -- AtEof() saw an empty buffer and reported a clean end of
  // file, silently truncating the data. The reader must latch the error,
  // report "not EOF", and surface it from every later call.
  std::string path = NewPath("midfile");
  std::vector<char> data(10000, 'a');
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append(data.data(), data.size()));
    ASSERT_OK(w.Close());
  }
  // Reader buffer of 4096: the file takes three fills. Fault fill #2.
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("read:2:EIO:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r(nullptr, /*buffer_bytes=*/4096);
  ASSERT_OK(r.Open(path));
  char buf[4096];
  size_t got = 0;
  ASSERT_OK(r.Read(buf, sizeof(buf), &got));
  EXPECT_EQ(got, 4096u);

  Status s = r.Read(buf, sizeof(buf), &got);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(got, 0u);
  EXPECT_FALSE(r.AtEof()) << "an I/O error must not read as end of file";
  // The error is sticky: later reads and Close keep reporting it.
  EXPECT_TRUE(r.Read(buf, sizeof(buf), &got).IsIOError());
  EXPECT_TRUE(r.Close().IsIOError());
}

TEST_F(FileTest, AtEofPeekErrorIsLatchedForTheNextRead) {
  // The failure can also first strike inside AtEof()'s peek: it must
  // return false and leave the error for the next Read to report.
  std::string path = NewPath("peek");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("read:1:EIO:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r;
  ASSERT_OK(r.Open(path));
  EXPECT_FALSE(r.AtEof());
  char buf[4];
  size_t got = 0;
  EXPECT_TRUE(r.Read(buf, sizeof(buf), &got).IsIOError());
}

TEST_F(FileTest, FlushFailureCarriesErrnoAndPoisonsWriter) {
  // A failed flush must (a) name the errno in the message, (b) poison the
  // writer so Close() reports the ORIGINAL error rather than masking it
  // with a second (possibly byte-duplicating) write attempt.
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("write:1:ENOSPC:sticky"));
  ScopedFileSystem scoped(&fs);
  SequentialFileWriter w;
  ASSERT_OK(w.Open(NewPath("nospace")));
  ASSERT_OK(w.Append("x", 1));  // buffered; no write yet
  Status s = w.Flush();
  ASSERT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), ENOSPC);

  // Every later call reports the same latched error...
  EXPECT_EQ(w.Append("y", 1).ToString(), s.ToString());
  Status close_status = w.Close();
  EXPECT_EQ(close_status.ToString(), s.ToString());
  // ...and exactly one write was attempted: Close did not re-flush.
  EXPECT_EQ(fs.ops_matched(), 1u);
}

TEST_F(FileTest, WriteFaultMatrixExactCategories) {
  // One writer life-cycle op at a time: open / write / sync each fail
  // independently with IOError carrying the injected errno.
  struct Case {
    const char* spec;
  } kCases[] = {{"open:1:EACCES"}, {"write:1:ENOSPC"}, {"sync:1:EROFS"}};
  for (const auto& c : kCases) {
    FaultSpec spec = MustParseSpec(c.spec);
    FaultInjectionFileSystem fs(PosixFileSystem(), spec);
    ScopedFileSystem scoped(&fs);
    SequentialFileWriter w;
    Status s = w.Open(NewPath(std::string("m-") + IoOpName(spec.op)));
    if (s.ok()) {
      s = w.Append("payload", 7);
      if (s.ok()) s = w.Sync();
    }
    EXPECT_TRUE(s.IsIOError()) << c.spec << ": " << s.ToString();
    EXPECT_EQ(s.sys_errno(), spec.fault_errno) << c.spec;
    EXPECT_EQ(fs.faults_injected(), 1u) << c.spec;
  }
}

TEST_F(FileTest, ReaderOpenFaultMatrix) {
  std::string path = NewPath("ro");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(path));
    ASSERT_OK(w.Append("abc", 3));
    ASSERT_OK(w.Close());
  }
  FaultInjectionFileSystem fs(PosixFileSystem(),
                              MustParseSpec("open:1:EACCES"));
  ScopedFileSystem scoped(&fs);
  SequentialFileReader r;
  Status s = r.Open(path);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(s.sys_errno(), EACCES);
}

TEST_F(FileTest, HelperFaultMatrix) {
  // The free helpers (rename / link / remove / stat) route through the
  // seam too -- each fails cleanly with the injected error.
  std::string src = NewPath("h-src");
  {
    SequentialFileWriter w;
    ASSERT_OK(w.Open(src));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("rename:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(RenameFile(src, NewPath("h-dst")).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("link:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(HardLinkFile(src, NewPath("h-lnk")).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("remove:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    EXPECT_TRUE(RemoveFileIfExists(src).IsIOError());
  }
  {
    FaultInjectionFileSystem fs(PosixFileSystem(),
                                MustParseSpec("stat:1:EACCES"));
    ScopedFileSystem scoped(&fs);
    uint64_t size = 0;
    EXPECT_TRUE(GetFileSize(src, &size).IsIOError());
  }
  // After all that, the file is untouched.
  uint64_t size = 0;
  ASSERT_OK(GetFileSize(src, &size));
  EXPECT_EQ(size, 1u);
}

TEST_F(FileTest, ScratchDirCleansUpOnDestruction) {
  std::string dir_path;
  {
    ScratchDir dir;
    ASSERT_OK(ScratchDir::Create("semis-cleanup", &dir));
    dir_path = dir.path();
    SequentialFileWriter w;
    ASSERT_OK(w.Open(dir.NewFilePath("f")));
    ASSERT_OK(w.Append("x", 1));
    ASSERT_OK(w.Close());
    uint64_t size;
    EXPECT_OK(GetFileSize(dir_path + "/f.0", &size));
  }
  uint64_t size;
  EXPECT_FALSE(GetFileSize(dir_path + "/f.0", &size).ok());
}

}  // namespace
}  // namespace semis
