#include "core/parallel_greedy.h"

#include <thread>

#include "graph/sharded_adjacency_file.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace semis {

Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                   const ParallelGreedyOptions& options,
                                   AlgoResult* result,
                                   std::vector<VState>* states) {
  uint32_t num_threads = options.pipeline.num_threads;
  if (num_threads == 0) {
    num_threads = std::thread::hardware_concurrency();
    if (num_threads == 0) num_threads = 1;
  }
  if (num_threads <= 1) {
    // Sequential reference path: the plain greedy scan, which reads the
    // shards in manifest order.
    return RunGreedyWithStates(manifest_path, options.greedy, result, states);
  }

  WallTimer timer;
  AlgoResult res;
  std::vector<VState> state;
  ThreadPool pool(num_threads);
  ManifestOrderedShardCursor cursor(&res.io);
  BlockRingOptions ring;
  ring.block_bytes = options.pipeline.decode_block_bytes;
  ring.max_buffered_bytes = options.pipeline.max_buffered_bytes;
  SEMIS_RETURN_IF_ERROR(cursor.Open(manifest_path, &pool, ring));
  SEMIS_RETURN_IF_ERROR(
      RunGreedyScan(&cursor, manifest_path, options.greedy, &res, &state));
  SEMIS_RETURN_IF_ERROR(cursor.Close());
  // The prefetch window's decoded shards are pipeline memory on top of
  // the O(|V|) state array; Set-then-zero records the peak.
  res.memory.Set("shard-buffers", cursor.peak_buffered_bytes());
  res.memory.Set("shard-buffers", 0);

  ExtractIndependentSet(state, &res.in_set, &res.set_size);
  res.memory.Add("result-bitset", res.in_set.MemoryBytes());
  res.peak_memory_bytes = res.memory.PeakBytes();
  res.seconds = timer.ElapsedSeconds();
  if (states != nullptr) *states = std::move(state);
  *result = std::move(res);
  return Status::OK();
}

Status RunParallelGreedy(const std::string& manifest_path,
                         const ParallelGreedyOptions& options,
                         AlgoResult* result) {
  return RunParallelGreedyWithStates(manifest_path, options, result, nullptr);
}

}  // namespace semis
