// Copyright (c) the semis authors.
// Buffered sequential file access. This is the only way graph data reaches
// the algorithms: the API intentionally offers no seek-to-offset read, so
// core code is structurally unable to perform the random accesses the
// semi-external model forbids. All bytes and metadata ops route through
// the process-wide FileSystem seam (io/env.h), so fault-injection tests
// exercise these exact code paths.
//
// Both classes also expose their buffer directly, so fixed-layout records
// are parsed and built in place instead of being copied field by field:
// SequentialFileReader::Window/Consume hand out a read-only view of the
// next bytes, SequentialFileWriter::Reserve a slot for the next bytes.
// The buffers are u32-aligned and never zero-filled.
#ifndef SEMIS_IO_FILE_H_
#define SEMIS_IO_FILE_H_

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>

#include "io/env.h"
#include "io/io_stats.h"
#include "util/status.h"

namespace semis {

/// Append-only buffered writer.
class SequentialFileWriter {
 public:
  /// `stats` may be null; if set, byte counters are charged to it.
  explicit SequentialFileWriter(IoStats* stats = nullptr,
                                size_t buffer_bytes = 1 << 20);
  ~SequentialFileWriter();

  SequentialFileWriter(const SequentialFileWriter&) = delete;
  SequentialFileWriter& operator=(const SequentialFileWriter&) = delete;

  /// Creates/truncates `path` for writing.
  Status Open(const std::string& path);

  /// Opens `path` for appending without truncation (the edge-delta logs
  /// grow across update batches). The file must already exist -- appending
  /// to a missing file almost always means a lost header, so it is
  /// reported instead of silently creating a headerless file.
  /// BytesWritten() counts only the bytes appended by this writer.
  Status OpenAppend(const std::string& path);

  /// Appends `n` raw bytes. Bytes that fit in the buffer cost one
  /// memcpy; larger appends stream through it in buffer-sized chunks.
  /// `data` may be null when `n` is 0.
  Status Append(const void* data, size_t n) {
    if (n != 0 && n <= capacity_ - buffered_ && Healthy()) {
      std::memcpy(bytes() + buffered_, data, n);
      Advance(n);
      return Status::OK();
    }
    return AppendSlow(data, n);
  }

  /// Reserves the next `n` bytes of the file in the writer's buffer and
  /// points `*dst` at them, so a record is built in place. The bytes
  /// count as appended: the caller must fill all `n` of them before the
  /// next call on this writer. A reservation larger than the buffer grows
  /// it (once, to `n`).
  Status Reserve(size_t n, char** dst) {
    if (n <= capacity_ - buffered_ && Healthy()) {
      *dst = bytes() + buffered_;
      Advance(n);
      return Status::OK();
    }
    return ReserveSlow(n, dst);
  }

  /// Appends one little-endian u32.
  Status AppendU32(uint32_t v) { return Append(&v, sizeof(v)); }

  /// Appends one little-endian u64.
  Status AppendU64(uint64_t v) { return Append(&v, sizeof(v)); }

  /// Flushes the user-space buffer to the OS. A failed flush poisons the
  /// writer: the error (with its errno) is latched, and every later
  /// Append/Flush/Sync/Close reports it instead of retrying the write --
  /// re-flushing a partially-accepted buffer would duplicate bytes.
  Status Flush();

  /// Flushes and fsync()s: on return the bytes written so far are durable
  /// (modulo the containing directory entry -- see SyncParentDirectory).
  Status Sync();

  /// Flushes and closes. Safe to call twice. After a failed flush the
  /// original error is returned (never masked by a later close result).
  Status Close();

  /// Bytes appended so far (including buffered, not yet flushed bytes).
  uint64_t BytesWritten() const { return bytes_written_; }

  /// Path passed to Open().
  const std::string& path() const { return path_; }

  /// True if Open() succeeded and Close() has not been called.
  bool IsOpen() const { return file_ != nullptr; }

 private:
  bool Healthy() const { return file_ != nullptr && deferred_error_.ok(); }
  char* bytes() { return reinterpret_cast<char*>(buffer_.get()); }
  void Advance(size_t n) {
    buffered_ += n;
    bytes_written_ += n;
    if (stats_ != nullptr) stats_->bytes_written += n;
  }
  Status AppendSlow(const void* data, size_t n);
  Status ReserveSlow(size_t n, char** dst);

  IoStats* stats_;
  size_t capacity_;                     // of buffer_, in bytes
  std::unique_ptr<uint32_t[]> buffer_;  // u32 words, never zero-filled
  size_t buffered_ = 0;
  std::unique_ptr<RawFile> file_;
  // First write/sync failure; sticky until Close (see Flush()).
  Status deferred_error_;
  std::string path_;
  uint64_t bytes_written_ = 0;
};

/// Forward-only buffered reader.
class SequentialFileReader {
 public:
  /// `stats` may be null; if set, byte counters are charged to it.
  explicit SequentialFileReader(IoStats* stats = nullptr,
                                size_t buffer_bytes = 1 << 20);
  ~SequentialFileReader();

  SequentialFileReader(const SequentialFileReader&) = delete;
  SequentialFileReader& operator=(const SequentialFileReader&) = delete;

  /// Opens `path` for reading from the beginning.
  Status Open(const std::string& path);

  /// Reads exactly `n` bytes into `out`. Fails with Corruption on a short
  /// read (graph files have self-describing lengths, so EOF mid-record
  /// means a truncated file).
  Status ReadExact(void* out, size_t n);

  /// Reads up to `n` bytes; `*out_n` receives the number actually read
  /// (0 at EOF).
  Status Read(void* out, size_t n, size_t* out_n);

  /// Makes the next `n` unread bytes contiguous in the reader's buffer
  /// and points `*data` at them, without consuming them. When a window
  /// straddles the end of the buffer, the unread tail slides to the front
  /// and the rest is refilled; a window larger than the buffer grows it
  /// (once, to `n`), so callers check any length read from the file
  /// before asking for it. Fails with Corruption, like ReadExact, when the
  /// file ends first, and with the latched error after a failed read.
  ///
  /// Lifetime: the window is valid until the next call on this reader
  /// other than Consume. Its start is 4-byte aligned whenever every read
  /// since Open consumed a multiple of 4 bytes (all record formats of
  /// this library do), so it may be viewed as u32 words in place.
  Status Window(size_t n, const char** data) {
    if (n <= buf_len_ - buf_pos_) {
      *data = bytes() + buf_pos_;
      return Status::OK();
    }
    return FillWindow(n, data);
  }

  /// Consumes `n` bytes of the current window (n <= its length). The
  /// window's bytes stay readable until the next call.
  void Consume(size_t n) {
    buf_pos_ += n;
    bytes_read_ += n;
    if (stats_ != nullptr) stats_->bytes_read += n;
  }

  /// Unread bytes sitting in the buffer (what a failed Window found
  /// before the end of the file).
  size_t Buffered() const { return buf_len_ - buf_pos_; }

  /// The Corruption ReadExact reports when only `got` of `wanted` bytes
  /// were left in the file.
  Status UnexpectedEof(size_t wanted, size_t got) const;

  /// Reads one little-endian u32.
  Status ReadU32(uint32_t* v) { return ReadExact(v, sizeof(*v)); }

  /// Reads one little-endian u64.
  Status ReadU64(uint64_t* v) { return ReadExact(v, sizeof(*v)); }

  /// True when all bytes have been consumed. A read error is NOT end of
  /// file: after one, AtEof() returns false and the next Read/ReadExact/
  /// Close reports the latched error -- a mid-file I/O error must never
  /// be mistaken for clean truncation.
  bool AtEof();

  /// Closes the file. Safe to call twice. Reports a read error latched
  /// by an earlier fill (see AtEof()) if one is still pending.
  Status Close();

  /// Bytes consumed so far.
  uint64_t BytesRead() const { return bytes_read_; }

  /// Path passed to Open().
  const std::string& path() const { return path_; }

 private:
  char* bytes() const { return reinterpret_cast<char*>(buffer_.get()); }
  // One RawFile::Read into the buffer from byte `at` on (counted in
  // IoStats::read_calls); sets hit_eof_ on a short read and latches a
  // failure.
  Status ReadAt(size_t at, size_t* got);
  Status FillBuffer();
  Status FillWindow(size_t n, const char** data);

  IoStats* stats_;
  size_t capacity_;                     // of buffer_, in bytes
  std::unique_ptr<uint32_t[]> buffer_;  // u32 words, never zero-filled
  size_t buf_pos_ = 0;
  size_t buf_len_ = 0;
  bool hit_eof_ = false;
  std::unique_ptr<RawFile> file_;
  // First fill failure; sticky so AtEof() cannot read an error as EOF.
  Status pending_error_;
  std::string path_;
  uint64_t bytes_read_ = 0;
};

/// Returns the size of `path` in bytes, or a NotFound/IOError status.
Status GetFileSize(const std::string& path, uint64_t* size);

/// Removes a file if it exists (missing file is not an error).
Status RemoveFileIfExists(const std::string& path);

/// fsync()s an existing file by path (open + fsync + close).
Status SyncFile(const std::string& path);

/// fsync()s the directory containing `path`, making renames/creates/links
/// of entries in it durable. "" and paths without '/' sync ".".
Status SyncParentDirectory(const std::string& path);

/// Creates hard link `dst` referring to `src`'s inode. Fails if `dst`
/// exists. Used by the epoch journal to carry unchanged store files into a
/// new epoch without copying bytes.
Status HardLinkFile(const std::string& src, const std::string& dst);

/// rename(2) with a Status-carrying error message.
Status RenameFile(const std::string& from, const std::string& to);

}  // namespace semis

#endif  // SEMIS_IO_FILE_H_
