#include "graph/adjacency_file.h"

#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "io/epoch_journal.h"

namespace semis {

namespace {
constexpr uint32_t kVersion = 1;  // of both SADJ files and SADS shards
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
  SEMIS_RETURN_IF_ERROR(out->AppendU32(id));
  SEMIS_RETURN_IF_ERROR(out->AppendU32(degree));
  if (degree > 0) {
    SEMIS_RETURN_IF_ERROR(out->Append(neighbors, sizeof(VertexId) * degree));
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

namespace {

// Stages one record for Next in the reader's reused neighbor buffer and
// hands it to the caller's view on commit: the RecordBlock staging
// protocol without a block, so the per-record path allocates nothing
// once warm and leaves the view untouched on failure.
struct ViewSink {
  VertexId* BeginRecord(VertexId id, uint32_t degree) {
    buffer->resize(degree);
    staged = VertexRecordView{id, degree, buffer->data()};
    return buffer->data();
  }
  void CommitRecord() { *out = staged; }
  void AbandonRecord() {}

  std::vector<VertexId>* buffer;
  VertexRecordView* out;
  VertexRecordView staged;
};

}  // namespace

// The hot path keeps only the per-record reads and checks; the once per
// shard end checks and the error messages live out of line, so Decode
// stays small enough to inline into NextInto and Next.
template <typename Sink>
inline Status AdjacencyShardReader::Decode(Sink* sink, bool* has_next) {
  if (records_seen_ == num_records_ || reader_.AtEof()) {
    return EndOfShard(has_next);
  }
  uint32_t id = 0, degree = 0;
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&id));
  SEMIS_RETURN_IF_ERROR(reader_.ReadU32(&degree));
  if (id >= num_vertices_) return Corrupt("record id out of range");
  if (degree > max_degree_) {
    return Corrupt("record degree exceeds header max_degree");
  }
  // Decode straight into the sink; a failed read or a bad neighbor rolls
  // the staged record back so a sink never exposes a half-record.
  VertexId* dst = sink->BeginRecord(id, degree);
  if (degree > 0) {
    Status read = reader_.ReadExact(dst, sizeof(VertexId) * degree);
    if (!read.ok()) {
      sink->AbandonRecord();
      return read;
    }
    for (uint32_t i = 0; i < degree; ++i) {
      if (dst[i] >= num_vertices_) {
        sink->AbandonRecord();
        return Corrupt("neighbor id out of range");
      }
    }
  }
  if (edges_seen_ + degree > num_edges_) {
    sink->AbandonRecord();
    return Corrupt("more edges than declared");
  }
  sink->CommitRecord();
  records_seen_++;
  edges_seen_ += degree;
  if (stats_ != nullptr) stats_->records_decoded++;
  *has_next = true;
  return Status::OK();
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

Status AdjacencyShardReader::NextInto(RecordBlock* block, bool* has_next) {
  return Decode(block, has_next);
}

Status AdjacencyShardReader::Next(VertexRecordView* view, bool* has_next) {
  ViewSink sink{&neighbor_buf_, view, VertexRecordView()};
  return Decode(&sink, has_next);
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
    // manifest, not from the root.
    ResolvedShardStore resolved;
    SEMIS_RETURN_IF_ERROR(ResolveShardStore(path, &resolved, stats_));
    manifest_path_ = resolved.manifest_path;
    SEMIS_RETURN_IF_ERROR(
        ReadShardedAdjacencyManifest(manifest_path_, &manifest_, stats_));
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
