#include "core/greedy.h"

#include "graph/adjacency_file.h"
#include "util/timer.h"

namespace semis {

Status RunGreedyWithStates(const std::string& path,
                           const GreedyOptions& options, AlgoResult* result,
                           std::vector<VState>* states) {
  WallTimer timer;
  AlgoResult res;
  AdjacencyFileScanner scanner(&res.io);
  SEMIS_RETURN_IF_ERROR(scanner.Open(path));

  if (options.require_degree_sorted && !scanner.header().IsDegreeSorted()) {
    return Status::InvalidArgument(
        "greedy requires a degree-sorted adjacency file: " + path);
  }

  // Lines 1-2: every vertex starts INITIAL. The state array is the
  // algorithm's entire memory footprint, 1 byte per vertex.
  const uint64_t n = scanner.header().num_vertices;
  std::vector<VState> state(n, VState::kInitial);
  res.memory.Add("state", n * sizeof(VState));

  // Lines 3-8, one sequential scan in store order: a still-INITIAL vertex
  // joins the set and its INITIAL neighbors become non-IS. (The paper's
  // pseudo-code types line 8 as "IS"; the surrounding text and the
  // algorithm's correctness require non-IS.)
  VertexRecordView rec;
  bool has_next = false;
  while (true) {
    SEMIS_RETURN_IF_ERROR(scanner.Next(&rec, &has_next));
    if (!has_next) break;
    if (state[rec.id] != VState::kInitial) continue;
    state[rec.id] = VState::kI;
    for (VertexId nb : rec) {
      if (state[nb] == VState::kInitial) state[nb] = VState::kN;
    }
  }

  ExtractIndependentSet(state, &res.in_set, &res.set_size);
  res.memory.Add("result-bitset", res.in_set.MemoryBytes());
  res.peak_memory_bytes = res.memory.PeakBytes();
  res.seconds = timer.ElapsedSeconds();
  if (states != nullptr) *states = std::move(state);
  *result = std::move(res);
  return Status::OK();
}

Status RunGreedy(const std::string& path, const GreedyOptions& options,
                 AlgoResult* result) {
  return RunGreedyWithStates(path, options, result, nullptr);
}

}  // namespace semis
