// The benchmark's workloads. Each one builds its inputs from the seed in
// set-up, then repeats its timed unit of work until the run length is
// spent, and reports medians over the repetitions.
//
//   solve-seq      MisEngine::Open(SADJ, verify) on 1 thread, no shards
//   solve-par      the same graph with 16 shards and 4 threads
//   update-stream  ApplyBatch -> Repair -> Publish over a 16-shard store
//                  while an open-loop reader queries Snapshot()
//
// Untraced runs report the end-to-end metrics. Traced runs replay the
// same work through each layer's public function inside spans and report
// the per-layer metrics (see perfbench/README.md for both tables).
#ifndef SEMIS_PERFBENCH_WORKLOADS_H_
#define SEMIS_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "metrics.h"
#include "util/random.h"

namespace perfbench {

/// Input sizes. kFull is the benchmark; kTiny is the smoke-test size.
enum class Scale { kFull, kTiny };

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Scale scale = Scale::kFull;
  /// Inputs, intermediates and scratch files live under this directory.
  std::string work_dir;
  /// Chrome trace-event file of a traced run ("" = do not write one).
  std::string trace_path;
};

/// Average degree of every generated PLRG input.
inline constexpr double kAvgDegree = 8.0;
/// Pipeline threads of solve-par and repair threads of update-stream.
inline constexpr uint32_t kSolveParThreads = 4;
inline constexpr uint32_t kUpdateThreads = 2;
/// Membership lookups per snapshot query.
inline constexpr uint32_t kQueryLookups = 16;

/// Worker threads the workload's pipeline is configured with.
uint32_t ThreadBudget(const std::string& workload);

/// The seed of the second graph each solve run reports set_size for.
uint64_t SecondSeed(uint64_t seed);

/// Generates GeneratePlrg(ForVerticesAndAvgDegree(num_vertices, 8)) from
/// `seed` and writes it, in id order (not degree-sorted), as SADJ.
semis::Status WriteInputGraph(uint64_t num_vertices, uint64_t seed,
                              const std::string& path);

/// Measured values by metric name. A per-layer metric of a layer the
/// workload does not call keeps no entry and reports 0.
using MetricValues = std::map<std::string, double>;

/// Appends every end-to-end metric, in BENCHMARK.json order, to `result`.
void AddEndToEndMetrics(const MetricValues& values, WorkloadResult* result);

/// Appends every per-layer metric, in BENCHMARK.json order, to `result`.
/// Both fail the run when `values` holds a name they do not declare.
void AddLayerMetrics(const MetricValues& values, WorkloadResult* result);

/// solve-seq / solve-par.
WorkloadResult RunSolveWorkload(const RunConfig& config);

/// update-stream.
WorkloadResult RunUpdateWorkload(const RunConfig& config);

/// One snapshot query: Snapshot() plus kQueryLookups random Contains()
/// calls, whose hits are added to `*hits` so they cannot be optimized
/// away. Returns the epoch it saw, 0 when none is published.
uint64_t QuerySnapshot(const semis::MisEngine& engine, semis::Random* rng,
                       uint64_t* hits);

}  // namespace perfbench

#endif  // SEMIS_PERFBENCH_WORKLOADS_H_
