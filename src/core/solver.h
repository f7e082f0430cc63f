// Copyright (c) the semis authors.
// One-shot facade over the pipeline: this is the entry point a
// downstream user calls for a single solve. Since the engine refactor
// the stages themselves -- degree-sort preprocessing (Section 4.1),
// greedy/baseline initial set (Algorithm 1), the optional swap stage
// (Algorithms 2-4), and streaming verification -- live in
// core/engine.h's MisEngine; a Solver is a throwaway engine that opens,
// copies out the open-time result, and closes. Callers that want to stay
// resident (serve membership queries, absorb update batches) should hold
// a MisEngine directly.
#ifndef SEMIS_CORE_SOLVER_H_
#define SEMIS_CORE_SOLVER_H_

#include <string>
#include <utility>

#include "core/engine.h"
#include "graph/graph.h"
#include "util/status.h"

namespace semis {

/// Solver configuration IS the engine configuration: the facade adds no
/// knobs of its own. Shard/thread/buffering fields live under
/// `.pipeline` (EnginePipelineOptions).
using SolverOptions = MisEngineOptions;

/// Facade over the pipeline. Stateless between calls; safe to reuse.
class Solver {
 public:
  /// Creates a solver with `options`.
  explicit Solver(SolverOptions options) : options_(std::move(options)) {}

  /// Solves the graph stored at `adjacency_path` -- a SADJ monolithic
  /// file or (detected by magic) a SADJS manifest. If
  /// `options.degree_sort` is set and a monolithic file is not already
  /// degree-sorted, a sorted copy is produced first. With
  /// `options.pipeline.num_shards` > 1 the whole pipeline runs over
  /// shards (see MisEngine::Open).
  Status SolveFile(const std::string& adjacency_path, SolveResult* result);

  /// Convenience for in-memory graphs: writes `graph` to a scratch
  /// adjacency file and solves it semi-externally.
  Status SolveGraph(const Graph& graph, SolveResult* result);

  /// Solves a graph that is ALREADY sharded (SADJS manifest; see
  /// graph/sharded_adjacency_file.h) without re-sorting or re-splitting:
  /// one greedy scan over the shards, then the swap stage on the
  /// parallel round executor with `options.pipeline.num_threads`
  /// (`options.pipeline.num_shards` is ignored -- the file fixes the
  /// shard count). Used by the streaming-update pipeline to solve from
  /// scratch after a compaction, and byte-identical for every thread
  /// count like the sharded SolveFile path. Because shards cannot be
  /// degree-sorted in place, `options.degree_sort` demands the
  /// manifest's degree-sorted flag instead of sorting; pass degree_sort
  /// = false to consume the records as-is (paper BASELINE order
  /// semantics). Non-manifest input fails with the manifest reader's
  /// diagnosis.
  Status SolveShardedFile(const std::string& manifest_path,
                          SolveResult* result);

  /// The options this solver was created with.
  const SolverOptions& options() const { return options_; }

 private:
  SolverOptions options_;
};

}  // namespace semis

#endif  // SEMIS_CORE_SOLVER_H_
