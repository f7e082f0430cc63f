#include "core/rounds_engine.h"

#include <thread>
#include <utility>

#include "graph/shard_store.h"
#include "graph/sharded_adjacency_file.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semis {

namespace {

// The parallel executor. Per round, two shard passes with a pool barrier
// between them:
//
//   propose  writes winner_round_[v] only from the worker scanning v's
//            record, reading state_ frozen at the round's entry barrier;
//   commit   writes state_[v] only from the worker scanning v's record,
//            reading winner_round_ frozen at the propose barrier (a
//            vertex never inspects a neighbor's STATE here -- losing is
//            detected from the winner marks, so no cross-vertex write
//            ordering exists to race on).
//
// Every shared slot is written by exactly one worker per pass and read
// only across a barrier, so plain (non-atomic) arrays are race-free.
// Shards whose frontier count dropped to zero are skipped in both
// passes; the counts are per-shard slots under the same one-writer rule.
class MinIdRoundsRun {
 public:
  MinIdRoundsRun(const std::string& manifest_path,
                 ShardedAdjacencyManifest manifest,
                 const MinIdRoundsOptions& options, uint32_t num_threads)
      : options_(options),
        manifest_path_(manifest_path),
        manifest_(std::move(manifest)),
        n_(manifest_.header.num_vertices),
        pool_(num_threads),
        worker_io_(pool_.size()),
        state_(n_, VState::kInitial),
        winner_round_(n_, 0),
        shard_frontier_(manifest_.num_shards(), 0),
        shard_winners_(manifest_.num_shards(), 0) {}

  Status Execute(AlgoResult* res);

  std::vector<VState> TakeStates() { return std::move(state_); }

 private:
  // One pass over the shards that still hold undecided vertices,
  // distributed over the pool; a worker short-circuits after its first
  // error and the first per-worker error (in worker order) is returned.
  template <typename PerShard>
  Status RunFrontierPass(PerShard&& per_shard) {
    std::vector<Status> worker_status(pool_.size());
    pool_.ParallelFor(
        manifest_.num_shards(), [&](size_t shard, size_t worker) {
          if (!worker_status[worker].ok()) return;
          if (shard_frontier_[shard] == 0) return;  // settled shard
          worker_status[worker] =
              per_shard(static_cast<uint32_t>(shard), worker);
        });
    scans_started_++;
    for (const Status& s : worker_status) {
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  template <typename RecordFn>
  Status ScanOneShard(uint32_t shard, size_t worker, RecordFn&& fn) {
    AdjacencyShardReader reader(&worker_io_[worker]);
    SEMIS_RETURN_IF_ERROR(reader.Open(manifest_path_, manifest_, shard));
    VertexRecordView rec;
    bool has_next = false;
    while (true) {
      SEMIS_RETURN_IF_ERROR(reader.Next(&rec, &has_next));
      if (!has_next) break;
      fn(rec);
    }
    return reader.Close();
  }

  void Observe(uint32_t round, uint64_t round_winners,
               uint64_t frontier) const;

  const MinIdRoundsOptions& options_;
  const std::string manifest_path_;
  const ShardedAdjacencyManifest manifest_;
  const uint64_t n_;
  ThreadPool pool_;
  std::vector<IoStats> worker_io_;
  uint64_t scans_started_ = 0;

  std::vector<VState> state_;
  std::vector<uint32_t> winner_round_;
  // Undecided-vertex and winner counts per shard, each written only by
  // the worker that scanned the shard this pass; summed in shard order
  // after the barrier so every reduction is deterministic.
  std::vector<uint64_t> shard_frontier_;
  std::vector<uint64_t> shard_winners_;
};

void MinIdRoundsRun::Observe(uint32_t round, uint64_t round_winners,
                             uint64_t frontier) const {
  RoundObservation obs;
  obs.round = round;
  obs.frontier_after = frontier;
  obs.winners.reserve(round_winners);
  for (uint64_t v = 0; v < n_; ++v) {
    if (winner_round_[v] == round) {
      obs.winners.push_back(static_cast<VertexId>(v));
    }
  }
  options_.observer(obs);
}

Status MinIdRoundsRun::Execute(AlgoResult* res) {
  res->memory.Add("state", n_ * sizeof(VState));
  res->memory.Add("winner-rounds", n_ * sizeof(uint32_t));
  res->memory.Add("shard-frontier",
                  2 * shard_frontier_.size() * sizeof(uint64_t));

  uint64_t frontier = 0;
  for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
    shard_frontier_[k] = manifest_.shards[k].num_records;
    frontier += shard_frontier_[k];
  }

  uint64_t is_size = 0;
  uint32_t round = 0;
  while (frontier > 0 &&
         (options_.max_rounds == 0 || round < options_.max_rounds)) {
    ++round;
    WallTimer round_timer;
    SEMIS_RETURN_IF_ERROR(
        RunFrontierPass([&](uint32_t shard, size_t worker) {
          return ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
            if (MinIdProposeRecord(rec, state_)) {
              winner_round_[rec.id] = round;
            }
          });
        }));
    SEMIS_RETURN_IF_ERROR(
        RunFrontierPass([&](uint32_t shard, size_t worker) {
          uint64_t winners = 0;
          uint64_t survivors = 0;
          SEMIS_RETURN_IF_ERROR(
              ScanOneShard(shard, worker, [&](const VertexRecordView& rec) {
                if (state_[rec.id] != VState::kInitial) return;
                const VState next =
                    MinIdCommitRecord(rec, round, winner_round_);
                state_[rec.id] = next;
                if (next == VState::kI) {
                  winners++;
                } else if (next == VState::kInitial) {
                  survivors++;
                }
              }));
          shard_winners_[shard] = winners;
          shard_frontier_[shard] = survivors;
          return Status::OK();
        }));

    uint64_t round_winners = 0;
    frontier = 0;
    for (uint32_t k = 0; k < manifest_.num_shards(); ++k) {
      round_winners += shard_winners_[k];
      frontier += shard_frontier_[k];
      shard_winners_[k] = 0;
    }
    if (round_winners == 0) {
      // The smallest undecided id always wins, so a barren round means
      // some undecided vertex has no record (a coverage hole the shard
      // readers cannot see); erroring beats spinning forever.
      return Status::Corruption(
          "min-id round decided no vertex; the sharded file is missing "
          "records for undecided vertices: " + manifest_path_);
    }
    is_size += round_winners;

    RoundStats stats;
    stats.new_is_vertices = round_winners;
    stats.is_size_after = is_size;
    stats.frontier_after = frontier;
    stats.seconds = round_timer.ElapsedSeconds();
    res->round_stats.push_back(stats);
    res->rounds++;
    if (options_.observer) Observe(round, round_winners, frontier);
  }

  ExtractIndependentSet(state_, &res->in_set, &res->set_size);
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  for (const IoStats& io : worker_io_) res->io.MergeFrom(io);
  res->io.sequential_scans += scans_started_;
  return Status::OK();
}

// The sequential reference loop: the same two per-record rules, applied
// in one thread over full passes of the whole file (no pool, no frontier
// skipping). The parallel executor must match this bit for bit.
Status RunReferenceRounds(const std::string& manifest_path, uint64_t n,
                          const MinIdRoundsOptions& options, AlgoResult* res,
                          std::vector<VState>* states) {
  std::vector<VState> state(n, VState::kInitial);
  std::vector<uint32_t> winner_round(n, 0);
  res->memory.Add("state", n * sizeof(VState));
  res->memory.Add("winner-rounds", n * sizeof(uint32_t));

  uint64_t frontier = n;
  uint64_t is_size = 0;
  uint32_t round = 0;
  while (frontier > 0 &&
         (options.max_rounds == 0 || round < options.max_rounds)) {
    ++round;
    WallTimer round_timer;
    {
      AdjacencyFileScanner scanner(&res->io);
      SEMIS_RETURN_IF_ERROR(scanner.Open(manifest_path));
      VertexRecordView rec;
      bool has_next = false;
      while (true) {
        SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
        if (!has_next) break;
        if (MinIdProposeRecord(rec, state)) winner_round[rec.id] = round;
      }
    }
    uint64_t round_winners = 0;
    uint64_t survivors = 0;
    {
      AdjacencyFileScanner scanner(&res->io);
      SEMIS_RETURN_IF_ERROR(scanner.Open(manifest_path));
      VertexRecordView rec;
      bool has_next = false;
      while (true) {
        SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
        if (!has_next) break;
        if (state[rec.id] != VState::kInitial) continue;
        const VState next = MinIdCommitRecord(rec, round, winner_round);
        state[rec.id] = next;
        if (next == VState::kI) {
          round_winners++;
        } else if (next == VState::kInitial) {
          survivors++;
        }
      }
    }
    if (round_winners == 0) {
      return Status::Corruption(
          "min-id round decided no vertex; the sharded file is missing "
          "records for undecided vertices: " + manifest_path);
    }
    frontier = survivors;
    is_size += round_winners;

    RoundStats stats;
    stats.new_is_vertices = round_winners;
    stats.is_size_after = is_size;
    stats.frontier_after = frontier;
    stats.seconds = round_timer.ElapsedSeconds();
    res->round_stats.push_back(stats);
    res->rounds++;
    if (options.observer) {
      RoundObservation obs;
      obs.round = round;
      obs.frontier_after = frontier;
      obs.winners.reserve(round_winners);
      for (uint64_t v = 0; v < n; ++v) {
        if (winner_round[v] == round) {
          obs.winners.push_back(static_cast<VertexId>(v));
        }
      }
      options.observer(obs);
    }
  }

  ExtractIndependentSet(state, &res->in_set, &res->set_size);
  res->memory.Add("result-bitset", res->in_set.MemoryBytes());
  res->peak_memory_bytes = res->memory.PeakBytes();
  if (states != nullptr) *states = std::move(state);
  return Status::OK();
}

Status RunMinIdRoundsImpl(const std::string& manifest_path,
                          const MinIdRoundsOptions& options,
                          bool force_reference, AlgoResult* result,
                          std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;
  // Resolve a journaled-store root so the shard readers open the current
  // epoch's files (same move as the other executors).
  ResolvedShardStore resolved;
  SEMIS_RETURN_IF_ERROR(ResolveShardStore(manifest_path, &resolved, &res.io));
  ShardedAdjacencyManifest manifest;
  SEMIS_RETURN_IF_ERROR(
      ReadShardedAdjacencyManifest(resolved.manifest_path, &manifest, &res.io));

  uint32_t num_threads = options.pipeline.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }

  if (force_reference || num_threads <= 1) {
    // 1 thread IS the sequential reference, not a 1-worker pool.
    SEMIS_RETURN_IF_ERROR(RunReferenceRounds(resolved.manifest_path,
                                             manifest.header.num_vertices,
                                             options, &res, states));
  } else {
    MinIdRoundsRun run(resolved.manifest_path, std::move(manifest), options,
                       num_threads);
    SEMIS_RETURN_IF_ERROR(run.Execute(&res));
    if (states != nullptr) *states = run.TakeStates();
  }
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace

Status RunMinIdRounds(const std::string& manifest_path,
                      const MinIdRoundsOptions& options, AlgoResult* result) {
  return RunMinIdRoundsImpl(manifest_path, options, /*force_reference=*/false,
                            result, nullptr);
}

Status RunMinIdRoundsWithStates(const std::string& manifest_path,
                                const MinIdRoundsOptions& options,
                                AlgoResult* result,
                                std::vector<VState>* states) {
  return RunMinIdRoundsImpl(manifest_path, options, /*force_reference=*/false,
                            result, states);
}

Status RunMinIdRoundsReference(const std::string& manifest_path,
                               const MinIdRoundsOptions& options,
                               AlgoResult* result,
                               std::vector<VState>* states) {
  return RunMinIdRoundsImpl(manifest_path, options, /*force_reference=*/true,
                            result, states);
}

}  // namespace semis
