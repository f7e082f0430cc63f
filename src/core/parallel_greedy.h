// Copyright (c) the semis authors.
// Options and entry point of Algorithm 1 over a sharded store, kept for
// the end-to-end benchmark (perfbench/), which calls them by name. The
// greedy scan is inherently sequential -- each record's outcome depends
// on every earlier record -- so there is no parallel executor behind
// this header: RunParallelGreedyWithStates is RunGreedyWithStates, which
// reads a SADJ file, a SADJS manifest or a journaled root through the
// one AdjacencyFileScanner. New code calls core/greedy.h directly.
#ifndef SEMIS_CORE_PARALLEL_GREEDY_H_
#define SEMIS_CORE_PARALLEL_GREEDY_H_

#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/mis_common.h"
#include "core/pipeline_options.h"
#include "util/status.h"

namespace semis {

/// Options of RunParallelGreedyWithStates.
struct ParallelGreedyOptions {
  /// Options of the greedy scan.
  GreedyOptions greedy;
  /// Shared pipeline knobs; the greedy scan reads none of them.
  EnginePipelineOptions pipeline;
};

/// RunGreedyWithStates over the store at `manifest_path`.
inline Status RunParallelGreedyWithStates(const std::string& manifest_path,
                                          const ParallelGreedyOptions& options,
                                          AlgoResult* result,
                                          std::vector<VState>* states) {
  return RunGreedyWithStates(manifest_path, options.greedy, result, states);
}

}  // namespace semis

#endif  // SEMIS_CORE_PARALLEL_GREEDY_H_
