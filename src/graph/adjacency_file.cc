#include "graph/adjacency_file.h"

#include <algorithm>
#include <cstring>

#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/epoch_journal.h"

namespace semis {

namespace {
constexpr uint32_t kVersion = 1;  // of both SADJ files and SADS shards
// A record's `u32 id  u32 degree` head, before its neighbors.
constexpr size_t kRecordHeadBytes = 2 * sizeof(uint32_t);
}  // namespace

void AdjacencyRecordEncoder::Declare(uint64_t num_vertices,
                                     uint64_t num_directed_edges,
                                     uint32_t max_degree) {
  declared_vertices_ = num_vertices;
  declared_directed_edges_ = num_directed_edges;
  declared_max_degree_ = max_degree;
  appended_vertices_ = 0;
  appended_edges_ = 0;
}

Status AdjacencyRecordEncoder::Append(SequentialFileWriter* out, VertexId id,
                                      const VertexId* neighbors,
                                      uint32_t degree) {
  if (id >= declared_vertices_) {
    return Status::InvalidArgument("vertex id " + std::to_string(id) +
                                   " out of range");
  }
  if (degree > declared_max_degree_) {
    return Status::InvalidArgument(
        "vertex degree exceeds declared max_degree");
  }
  const size_t neighbor_bytes = sizeof(VertexId) * size_t{degree};
  char* dst = nullptr;
  SEMIS_RETURN_IF_ERROR(out->Reserve(kRecordHeadBytes + neighbor_bytes, &dst));
  std::memcpy(dst, &id, sizeof(id));
  std::memcpy(dst + sizeof(id), &degree, sizeof(degree));
  if (degree > 0) {
    std::memcpy(dst + kRecordHeadBytes, neighbors, neighbor_bytes);
  }
  appended_vertices_++;
  appended_edges_ += degree;
  return Status::OK();
}

Status AdjacencyRecordEncoder::CheckTotals() const {
  if (appended_vertices_ != declared_vertices_) {
    return Status::InvalidArgument(
        "vertex count mismatch: declared " +
        std::to_string(declared_vertices_) + ", appended " +
        std::to_string(appended_vertices_));
  }
  if (appended_edges_ != declared_directed_edges_) {
    return Status::InvalidArgument(
        "edge count mismatch: declared " +
        std::to_string(declared_directed_edges_) + ", appended " +
        std::to_string(appended_edges_));
  }
  return Status::OK();
}

AdjacencyFileWriter::AdjacencyFileWriter(IoStats* stats) : writer_(stats) {}

Status AdjacencyFileWriter::Open(const std::string& path,
                                 uint64_t num_vertices,
                                 uint64_t num_directed_edges,
                                 uint32_t max_degree, uint32_t flags) {
  SEMIS_RETURN_IF_ERROR(writer_.Open(path));
  encoder_.Declare(num_vertices, num_directed_edges, max_degree);
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(kAdjacencyFileMagic));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(kVersion));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU64(num_vertices));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU64(num_directed_edges));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(flags));
  SEMIS_RETURN_IF_ERROR(writer_.AppendU32(max_degree));
  return Status::OK();
}

Status AdjacencyFileWriter::AppendVertex(VertexId id,
                                         const VertexId* neighbors,
                                         uint32_t degree) {
  return encoder_.Append(&writer_, id, neighbors, degree);
}

Status AdjacencyFileWriter::Finish() {
  SEMIS_RETURN_IF_ERROR(encoder_.CheckTotals());
  return writer_.Close();
}

AdjacencyShardReader::AdjacencyShardReader(IoStats* stats)
    : stats_(stats), reader_(stats) {}

Status AdjacencyShardReader::Open(const std::string& manifest_path,
                                  const ShardedAdjacencyManifest& manifest,
                                  uint32_t index) {
  if (index >= manifest.num_shards()) {
    return Status::InvalidArgument("shard index out of range");
  }
  path_ = ShardFilePath(manifest_path, index);
  num_vertices_ = manifest.header.num_vertices;
  max_degree_ = manifest.header.max_degree;
  num_records_ = manifest.shards[index].num_records;
  num_edges_ = manifest.shards[index].num_directed_edges;
  records_seen_ = 0;
  edges_seen_ = 0;
  SEMIS_RETURN_IF_ERROR(reader_.Open(path_));
  uint32_t magic = 0, version = 0, file_index = 0, reserved = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&magic));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&version));
  if (magic != kAdjacencyShardMagic) {
    return Status::Corruption("bad magic in '" + path_ +
                              "': not an adjacency shard");
  }
  if (version != kVersion) {
    return Status::NotSupported("adjacency shard version " +
                                std::to_string(version) + " not supported");
  }
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&file_index));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&reserved));
  if (file_index != index) {
    return Status::Corruption("shard index mismatch in '" + path_ + "'");
  }
  uint64_t hint_records = 0, hint_edges = 0, global_vertices = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&hint_records));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&hint_edges));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&global_vertices));
  if (global_vertices != num_vertices_) {
    return Status::Corruption("shard '" + path_ +
                              "' disagrees with manifest vertex count");
  }
  return Status::OK();
}

Status AdjacencyShardReader::OpenFile(const std::string& path,
                                      uint32_t* magic,
                                      ShardedAdjacencyManifest* manifest) {
  path_ = path;
  records_seen_ = 0;
  edges_seen_ = 0;
  SEMIS_RETURN_IF_ERROR(reader_.Open(path));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(magic));
  if (*magic != kAdjacencyFileMagic) return reader_.Close();
  uint32_t version = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&version));
  if (version != kVersion) {
    return Status::NotSupported("adjacency file version " +
                                std::to_string(version) + " not supported");
  }
  AdjacencyFileHeader h;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&h.num_vertices));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU64(&h.num_directed_edges));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&h.flags));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&h.max_degree));
  num_vertices_ = h.num_vertices;
  max_degree_ = h.max_degree;
  num_records_ = h.num_vertices;
  num_edges_ = h.num_directed_edges;
  manifest->header = h;
  manifest->shards.assign(1, ShardInfo{h.num_vertices, h.num_directed_edges});
  return Status::OK();
}

// The hot path keeps only the per-record window requests and checks; the
// once per shard end checks, the truncation messages and the error
// strings live out of line. Every check runs before `*rec` is written,
// so a failed decode leaves the caller's view untouched.
Status AdjacencyShardReader::Next(VertexRecordView* rec, bool* has_next) {
  if (records_seen_ == num_records_) return EndOfShard(has_next);
  const char* window = nullptr;
  Status s = reader_.Window(kRecordHeadBytes, &window);
  if (!s.ok()) return ShortRecord(std::move(s), 0, has_next);
  // Record offsets are multiples of 4 (the headers are too), so the
  // window is u32-aligned and is read as words in place.
  const VertexId* words = reinterpret_cast<const VertexId*>(window);
  const VertexId id = words[0];
  const uint32_t degree = words[1];
  if (id >= num_vertices_) return Corrupt("record id out of range");
  if (degree > max_degree_) {
    return Corrupt("record degree exceeds header max_degree");
  }
  const size_t bytes = kRecordHeadBytes + sizeof(VertexId) * size_t{degree};
  s = reader_.Window(bytes, &window);
  if (!s.ok()) return ShortRecord(std::move(s), degree, has_next);
  const VertexId* neighbors =
      reinterpret_cast<const VertexId*>(window + kRecordHeadBytes);
  // One branch-free reduction checks every neighbor id (degree 0 gives
  // 0, which the id check above already showed is in range).
  VertexId max_neighbor = 0;
  for (uint32_t i = 0; i < degree; ++i) {
    max_neighbor = std::max(max_neighbor, neighbors[i]);
  }
  if (max_neighbor >= num_vertices_) {
    return Corrupt("neighbor id out of range");
  }
  if (edges_seen_ + degree > num_edges_) {
    return Corrupt("more edges than declared");
  }
  reader_.Consume(bytes);
  *rec = VertexRecordView{id, degree, neighbors};
  records_seen_++;
  edges_seen_ += degree;
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
  return Status::OK();
}

Status AdjacencyShardReader::ShortRecord(Status window, uint32_t degree,
                                         bool* has_next) {
  // A read error is never end of file.
  if (!window.IsCorruption()) return window;
  const size_t left = reader_.Buffered();
  if (left == 0) return EndOfShard(has_next);
  // Name the field the file ends in, as reading field by field would.
  if (left < kRecordHeadBytes) {
    const size_t field = sizeof(uint32_t);
    return reader_.UnexpectedEof(field, left < field ? left : left - field);
  }
  return reader_.UnexpectedEof(sizeof(VertexId) * size_t{degree},
                               left - kRecordHeadBytes);
}

Status AdjacencyShardReader::EndOfShard(bool* has_next) {
  if (records_seen_ != num_records_) {
    return Status::Corruption(
        "'" + path_ + "' truncated: expected " +
        std::to_string(num_records_) + " records, found " +
        std::to_string(records_seen_));
  }
  if (!reader_.AtEof()) return Corrupt("trailing bytes after last record");
  if (edges_seen_ != num_edges_) {
    return Status::Corruption(
        "'" + path_ + "' holds " + std::to_string(edges_seen_) +
        " directed edges but its header or manifest declares " +
        std::to_string(num_edges_));
  }
  *has_next = false;
  return Status::OK();
}

Status AdjacencyShardReader::Corrupt(const char* what) const {
  return Status::Corruption(std::string(what) + " in '" + path_ + "'");
}

Status AdjacencyShardReader::Close() { return reader_.Close(); }

AdjacencyFileScanner::AdjacencyFileScanner(IoStats* stats)
    : stats_(stats), reader_(stats) {}

Status AdjacencyFileScanner::Open(const std::string& path) {
  path_ = path;
  manifest_path_.clear();
  shard_ = 0;
  uint32_t magic = 0;
  SEMIS_RETURN_IF_ERROR(reader_.OpenFile(path, &magic, &manifest_));
  if (magic != kAdjacencyFileMagic) {
    if (magic != kShardManifestMagic && magic != kEpochRootMagic) {
      return Status::Corruption("bad magic in '" + path +
                                "': not an adjacency file or store");
    }
    // A store root: the shard paths derive from the serving epoch's
    // manifest, not from the root. Route on the magic just read rather
    // than opening the root again to probe it.
    SEMIS_RETURN_IF_ERROR(ReadShardStoreManifest(path, magic, &manifest_,
                                                 stats_, &manifest_path_));
    SEMIS_RETURN_IF_ERROR(reader_.Open(manifest_path_, manifest_, 0));
  }
  if (stats_ != nullptr) stats_->sequential_scans++;
  return Status::OK();
}

Status AdjacencyFileScanner::Rewind() {
  SEMIS_RETURN_IF_ERROR(reader_.Close());
  shard_ = 0;
  if (manifest_path_.empty()) {
    uint32_t magic = 0;
    SEMIS_RETURN_IF_ERROR(reader_.OpenFile(path_, &magic, &manifest_));
    if (magic != kAdjacencyFileMagic) {
      return Status::Corruption("'" + path_ +
                                "' is no longer an adjacency file");
    }
  } else {
    SEMIS_RETURN_IF_ERROR(reader_.Open(manifest_path_, manifest_, 0));
  }
  if (stats_ != nullptr) stats_->sequential_scans++;
  return Status::OK();
}

Status AdjacencyFileScanner::NextAcrossShards(VertexRecordView* view,
                                              bool* has_next) {
  SEMIS_RETURN_IF_ERROR(reader_.Next(view, has_next));
  // Crosses finished (possibly empty) shards until a record or the end.
  while (!*has_next && shard_ + 1 < manifest_.num_shards()) {
    SEMIS_RETURN_IF_ERROR(reader_.Close());
    shard_++;
    SEMIS_RETURN_IF_ERROR(reader_.Open(manifest_path_, manifest_, shard_));
    SEMIS_RETURN_IF_ERROR(reader_.Next(view, has_next));
  }
  return Status::OK();
}

Status AdjacencyFileScanner::Close() { return reader_.Close(); }

}  // namespace semis
