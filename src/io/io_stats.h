// Copyright (c) the semis authors.
// I/O accounting for the semi-external algorithms. The paper's cost model
// charges sequential scans of the adjacency file (|V|+|E|)/B blocks each;
// we count bytes moved and scans started so every bench can report the
// I/O column of its table.
#ifndef SEMIS_IO_IO_STATS_H_
#define SEMIS_IO_IO_STATS_H_

#include <algorithm>
#include <cstdint>

#include "util/common.h"

namespace semis {

/// Counters shared by all file-layer objects of one experiment. Plain
/// struct (RocksDB Statistics style); attach a pointer to readers/writers.
struct IoStats {
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
  uint64_t read_calls = 0;
  uint64_t write_calls = 0;
  uint64_t files_opened = 0;
  /// Transient I/O failures absorbed by a RetryPolicy (io/env.h): each
  /// count is one extra attempt at a sound retry site (open, fsync,
  /// dir-fsync, root-pointer rename). Nonzero means the storage layer is
  /// degrading even though every operation eventually succeeded.
  uint64_t io_retries = 0;
  /// Number of full sequential scans of a graph file that were started.
  uint64_t sequential_scans = 0;
  /// Number of external-sort merge passes executed.
  uint64_t sort_passes = 0;
  /// Records decoded by AdjacencyShardReader, the one record decoder:
  /// every scan of a SADJ file or a SADJS store decodes each record once.
  uint64_t records_decoded = 0;
  /// Record blocks published by the block-decode pipeline
  /// (ManifestOrderedShardCursor).
  uint64_t blocks_decoded = 0;
  /// Peak allocated arena capacity of one block ring's pool (high-water
  /// mark; merged with max, not sum).
  uint64_t arena_bytes = 0;
  /// Peak decoded-but-unconsumed payload bytes buffered in the block ring
  /// (high-water mark; merged with max, not sum).
  uint64_t peak_buffered_bytes = 0;

  /// Logical blocks read given `block_size` (the paper's B).
  uint64_t BlocksRead(uint64_t block_size = kDefaultBlockSize) const {
    return (bytes_read + block_size - 1) / block_size;
  }
  /// Logical blocks written given `block_size`.
  uint64_t BlocksWritten(uint64_t block_size = kDefaultBlockSize) const {
    return (bytes_written + block_size - 1) / block_size;
  }

  /// Accumulates another counter set into this one.
  void MergeFrom(const IoStats& other) {
    bytes_read += other.bytes_read;
    bytes_written += other.bytes_written;
    read_calls += other.read_calls;
    write_calls += other.write_calls;
    files_opened += other.files_opened;
    io_retries += other.io_retries;
    sequential_scans += other.sequential_scans;
    sort_passes += other.sort_passes;
    records_decoded += other.records_decoded;
    blocks_decoded += other.blocks_decoded;
    // The peak counters describe a high-water mark, not traffic: merging
    // two stages keeps the larger mark instead of summing.
    arena_bytes = std::max(arena_bytes, other.arena_bytes);
    peak_buffered_bytes =
        std::max(peak_buffered_bytes, other.peak_buffered_bytes);
  }

  /// Resets all counters to zero.
  void Reset() { *this = IoStats(); }
};

}  // namespace semis

#endif  // SEMIS_IO_IO_STATS_H_
