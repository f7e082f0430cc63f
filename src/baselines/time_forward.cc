#include "baselines/time_forward.h"

#include "graph/adjacency_file.h"
#include "io/external_priority_queue.h"
#include "util/timer.h"

namespace semis {

Status RunTimeForwardMIS(const std::string& path,
                         const TimeForwardOptions& options,
                         AlgoResult* result) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));
  const uint64_t n = scanner.header().num_vertices;

  ExternalPriorityQueueOptions pq_opts;
  pq_opts.memory_budget_entries = options.pq_memory_entries;
  pq_opts.stats = &res.io;
  ExternalPriorityQueue pq(pq_opts);
  res.memory.Add("pq-buffer",
                 options.pq_memory_entries * (sizeof(uint64_t) + sizeof(uint32_t)));

  res.in_set.Resize(n);
  res.memory.Add("result-bitset", res.in_set.MemoryBytes());

  VertexRecordView rec;
  bool has_next = false;
  uint64_t expected_id = 0;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (rec.id != expected_id) {
      return Status::InvalidArgument(
          "time-forward processing requires id-ordered records (got id " +
          std::to_string(rec.id) + ", expected " +
          std::to_string(expected_id) + ")");
    }
    expected_id++;
    // Drain messages addressed to this vertex.
    bool blocked = false;
    while (!pq.Empty()) {
      uint64_t key = 0;
      uint32_t value = 0;
      SEMIS_RETURN_IF_ERROR(pq.PeekMin(&key, &value));
      if (key != rec.id) break;
      SEMIS_RETURN_IF_ERROR(pq.PopMin(&key, &value));
      blocked = true;
    }
    if (blocked) continue;
    res.in_set.Set(rec.id);
    res.set_size++;
    for (uint32_t i = 0; i < rec.degree; ++i) {
      const VertexId u = rec.neighbors[i];
      if (u > rec.id) {
        SEMIS_RETURN_IF_ERROR(pq.Push(u, rec.id));
      }
    }
  }
  res.peak_memory_bytes = res.memory.PeakBytes();
  res.seconds = timer.ElapsedSeconds();
  *result = std::move(res);
  return Status::OK();
}

}  // namespace semis
