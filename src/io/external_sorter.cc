#include "io/external_sorter.h"

#include <algorithm>
#include <cstring>
#include <queue>

#include "util/memory_tracker.h"

namespace semis {

namespace {
// Logical bytes charged per open run cursor (the reader's buffer size).
constexpr size_t kCursorBufferBytes = 1 << 20;
// Cap of the up-front buffer reservation (see Add), so an oversized
// budget cannot make the reservation itself fail.
constexpr size_t kMaxReserveBytes = size_t{1} << 30;
}  // namespace

// A sequential cursor over one sorted run file. Record layout:
//   u64 key, u32 len, u32 payload[len]
// The head record is parsed in place in the reader's window: `record`
// holds its raw bytes (the layout above, so a merge copies it whole) and
// `payload` views its words, both until the next Advance.
struct ExternalSorter::RunCursor {
  static constexpr size_t kHeadBytes = sizeof(uint64_t) + sizeof(uint32_t);

  explicit RunCursor(IoStats* stats) : reader(stats) {}

  Status Open(const std::string& path) {
    SEMIS_RETURN_IF_ERROR(reader.Open(path));
    return Advance();
  }

  // Moves past the head record and parses the next one. Sets `done` at
  // EOF.
  Status Advance() {
    reader.Consume(record_bytes);
    record_bytes = 0;
    if (reader.AtEof()) {
      done = true;
      return Status::OK();
    }
    SEMIS_RETURN_IF_ERROR(reader.Window(kHeadBytes, &record));
    std::memcpy(&key, record, sizeof(key));
    std::memcpy(&len, record + sizeof(key), sizeof(len));
    const size_t bytes = kHeadBytes + sizeof(uint32_t) * size_t{len};
    SEMIS_RETURN_IF_ERROR(reader.Window(bytes, &record));
    // Records are 12 + 4*len bytes, so every one starts u32-aligned.
    payload = reinterpret_cast<const uint32_t*>(record + kHeadBytes);
    record_bytes = bytes;
    return Status::OK();
  }

  SequentialFileReader reader;
  uint64_t key = 0;
  uint32_t len = 0;
  const uint32_t* payload = nullptr;
  const char* record = nullptr;
  size_t record_bytes = 0;
  bool done = false;
};

ExternalSorter::ExternalSorter(ExternalSorterOptions options)
    : options_(std::move(options)) {}

ExternalSorter::~ExternalSorter() = default;

Status ExternalSorter::ValidateOptions() const {
  // Rejecting bad knobs loudly beats the historical behavior of silently
  // clamping fan_in to 2 and degenerating to one spilled run per record
  // when the budget was zero.
  if (options_.fan_in < 2) {
    return Status::InvalidArgument("fan_in must be at least 2, got " +
                                   std::to_string(options_.fan_in));
  }
  if (options_.memory_budget_bytes == 0) {
    return Status::InvalidArgument("memory_budget_bytes must be positive");
  }
  return Status::OK();
}

Status ExternalSorter::Add(uint64_t key, const uint32_t* payload,
                           uint32_t len) {
  SEMIS_RETURN_IF_ERROR(ValidateOptions());
  if (finished_) return Status::InvalidArgument("Add after Finish");
  if (index_.capacity() == 0) {
    // Reserve a run's worth of buffer once: untouched pages cost no RSS,
    // and a buffer that never regrows never holds two copies at once, so
    // what is resident stays within the budget.
    const size_t reserve =
        std::min(options_.memory_budget_bytes, kMaxReserveBytes);
    index_.reserve(reserve / sizeof(IndexEntry) + 1);
    payload_pool_.reserve(reserve / sizeof(uint32_t) + 1);
  }
  IndexEntry e;
  e.key = key;
  e.offset = payload_pool_.size();
  e.len = len;
  e.seq = static_cast<uint32_t>(index_.size());
  if (len > 0) {
    payload_pool_.insert(payload_pool_.end(), payload, payload + len);
  }
  index_.push_back(e);
  num_records_++;
  mem_used_ += sizeof(IndexEntry) + sizeof(uint32_t) * len;
  if (mem_used_ >= options_.memory_budget_bytes) {
    SEMIS_RETURN_IF_ERROR(SpillRun());
  }
  return Status::OK();
}

Status ExternalSorter::SpillRun() {
  if (index_.empty()) return Status::OK();
  // The buffer is at its high-water mark right before a spill; recording
  // it here (and in Finish for the no-spill tail) keeps the tracker off
  // the per-record hot path while preserving the same observed peak.
  if (options_.memory != nullptr) {
    options_.memory->Set("sort-buffer", mem_used_);
  }
  if (scratch_path_.empty()) {
    if (!options_.scratch_dir.empty()) {
      scratch_path_ = options_.scratch_dir;
    } else {
      SEMIS_RETURN_IF_ERROR(ScratchDir::Create("semis-sort", &owned_scratch_));
      scratch_path_ = owned_scratch_.path();
    }
  }
  std::sort(index_.begin(), index_.end(),
            [](const IndexEntry& a, const IndexEntry& b) {
              if (a.key != b.key) return a.key < b.key;
              return a.seq < b.seq;
            });
  std::string path =
      scratch_path_ + "/run." + std::to_string(run_files_.size());
  SequentialFileWriter writer(options_.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(path));
  for (const IndexEntry& e : index_) {
    SEMIS_RETURN_IF_ERROR(writer.AppendU64(e.key));
    SEMIS_RETURN_IF_ERROR(writer.AppendU32(e.len));
    if (e.len > 0) {
      SEMIS_RETURN_IF_ERROR(writer.Append(payload_pool_.data() + e.offset,
                                          sizeof(uint32_t) * e.len));
    }
  }
  SEMIS_RETURN_IF_ERROR(writer.Close());
  run_files_.push_back(path);
  // Release the buffers (the next Add reserves afresh), so the merge
  // cursors never sit on top of a spilled run's pages.
  std::vector<IndexEntry>().swap(index_);
  std::vector<uint32_t>().swap(payload_pool_);
  mem_used_ = 0;
  if (options_.memory != nullptr) options_.memory->Set("sort-buffer", 0);
  return Status::OK();
}

Status ExternalSorter::MergeRuns(const std::vector<std::string>& inputs,
                                 const std::string& output) {
  if (options_.memory != nullptr) {
    options_.memory->Set("sort-cursors", inputs.size() * kCursorBufferBytes);
  }
  std::vector<std::unique_ptr<RunCursor>> cursors;
  cursors.reserve(inputs.size());
  for (const std::string& in : inputs) {
    auto c = std::make_unique<RunCursor>(options_.stats);
    SEMIS_RETURN_IF_ERROR(c->Open(in));
    cursors.push_back(std::move(c));
  }
  // Min-heap over (key, cursor index); index tiebreak keeps the merge
  // deterministic.
  using HeapItem = std::pair<uint64_t, size_t>;
  auto cmp = [](const HeapItem& a, const HeapItem& b) { return a > b; };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(cmp)> heap(
      cmp);
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (!cursors[i]->done) heap.emplace(cursors[i]->key, i);
  }
  SequentialFileWriter writer(options_.stats);
  SEMIS_RETURN_IF_ERROR(writer.Open(output));
  while (!heap.empty()) {
    auto [key, idx] = heap.top();
    heap.pop();
    RunCursor* c = cursors[idx].get();
    SEMIS_RETURN_IF_ERROR(writer.Append(c->record, c->record_bytes));
    SEMIS_RETURN_IF_ERROR(c->Advance());
    if (!c->done) heap.emplace(c->key, idx);
  }
  SEMIS_RETURN_IF_ERROR(writer.Close());
  for (const std::string& in : inputs) {
    SEMIS_RETURN_IF_ERROR(RemoveFileIfExists(in));
  }
  if (options_.memory != nullptr) options_.memory->Set("sort-cursors", 0);
  return Status::OK();
}

Status ExternalSorter::Finish() {
  SEMIS_RETURN_IF_ERROR(ValidateOptions());
  if (finished_) return Status::InvalidArgument("Finish called twice");
  finished_ = true;
  if (options_.memory != nullptr && mem_used_ > 0) {
    options_.memory->Set("sort-buffer", mem_used_);
  }
  if (run_files_.empty()) {
    // Everything fits in memory: sort in place and stream from the buffer.
    std::sort(index_.begin(), index_.end(),
              [](const IndexEntry& a, const IndexEntry& b) {
                if (a.key != b.key) return a.key < b.key;
                return a.seq < b.seq;
              });
    mem_iter_ = 0;
    return Status::OK();
  }
  // Input ended mid-buffer: spill the tail as one more run.
  SEMIS_RETURN_IF_ERROR(SpillRun());
  initial_runs_ = run_files_.size();
  // Intermediate passes until <= fan_in runs remain.
  while (run_files_.size() > options_.fan_in) {
    if (options_.stats != nullptr) options_.stats->sort_passes++;
    merge_passes_++;
    std::vector<std::string> next_level;
    for (size_t i = 0; i < run_files_.size(); i += options_.fan_in) {
      size_t end = std::min(i + options_.fan_in, run_files_.size());
      std::vector<std::string> group(run_files_.begin() + i,
                                     run_files_.begin() + end);
      if (group.size() == 1) {
        next_level.push_back(group[0]);
        continue;
      }
      std::string out = scratch_path_ + "/merge." +
                        std::to_string(merge_passes_) + "." +
                        std::to_string(next_level.size());
      SEMIS_RETURN_IF_ERROR(MergeRuns(group, out));
      next_level.push_back(out);
    }
    run_files_ = std::move(next_level);
  }
  // Final on-the-fly merge: open cursors for the surviving runs.
  if (options_.stats != nullptr) options_.stats->sort_passes++;
  if (options_.memory != nullptr) {
    options_.memory->Set("sort-cursors",
                         run_files_.size() * kCursorBufferBytes);
  }
  cursors_.reserve(run_files_.size());
  for (const std::string& path : run_files_) {
    auto c = std::make_unique<RunCursor>(options_.stats);
    SEMIS_RETURN_IF_ERROR(c->Open(path));
    cursors_.push_back(std::move(c));
  }
  return Status::OK();
}

bool ExternalSorter::Next(SortedRecordView* record) {
  if (!finished_ || !status_.ok()) return false;
  if (run_files_.empty()) {
    if (mem_iter_ >= index_.size()) return false;
    const IndexEntry& e = index_[mem_iter_++];
    *record = SortedRecordView{e.key, e.len, payload_pool_.data() + e.offset};
    return true;
  }
  if (returned_ != nullptr) {
    Status s = returned_->Advance();
    returned_ = nullptr;
    if (!s.ok()) {
      status_ = s;
      return false;
    }
  }
  RunCursor* best = nullptr;
  for (const std::unique_ptr<RunCursor>& c : cursors_) {
    if (!c->done && (best == nullptr || c->key < best->key)) best = c.get();
  }
  if (best == nullptr) return false;
  *record = SortedRecordView{best->key, best->len, best->payload};
  returned_ = best;
  return true;
}

}  // namespace semis
