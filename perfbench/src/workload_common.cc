#include "gen/plrg.h"
#include "graph/graph_io.h"
#include "workloads.h"

namespace perfbench {

uint32_t ThreadBudget(const std::string& workload) {
  if (workload == "solve-par") return kSolveParThreads;
  if (workload == "update-stream") return kUpdateThreads;
  return 1;
}

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"wall_s", "s"},
    {"cpu_s", "s"},            {"peak_rss_mb", "MiB"},
    {"set_size", "vertices"},  {"publish_p50_ms", "ms"},
    {"publish_p90_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.sort.wall_s", "s"},
    {"graph.sort.cpu_s", "s"},
    {"graph.sort.bytes_read", "bytes"},
    {"graph.sort.bytes_written", "bytes"},
    {"graph.sort.merge_passes", "count"},
    {"graph.sort.peak_mem_mb", "MiB"},
    {"graph.shard.wall_s", "s"},
    {"graph.shard.bytes_written", "bytes"},
    {"core.greedy.wall_s", "s"},
    {"core.greedy.cpu_s", "s"},
    {"core.greedy.cpu_per_wall", "s/s"},
    {"core.greedy.scans", "count"},
    {"core.greedy.bytes_read", "bytes"},
    {"core.greedy.records_decoded", "count"},
    {"core.swap.wall_s", "s"},
    {"core.swap.cpu_s", "s"},
    {"core.swap.cpu_per_wall", "s/s"},
    {"core.swap.rounds", "count"},
    {"core.swap.scans", "count"},
    {"core.swap.bytes_read", "bytes"},
    {"core.swap.swaps", "count"},
    {"core.swap.conflicts", "count"},
    {"core.swap.gain_per_scan", "vertices/scan"},
    {"core.verify.wall_s", "s"},
    {"core.verify.bytes_read", "bytes"},
    {"core.stream.apply.p50_ms", "ms"},
    {"core.stream.apply.bytes_written", "bytes"},
    {"core.stream.apply.evictions", "count"},
    {"core.stream.repair.p50_ms", "ms"},
    {"core.stream.repair.p90_ms", "ms"},
    {"core.stream.repair.cpu_s", "s"},
    {"core.stream.repair.scans", "count"},
    {"core.stream.repair.records_decoded", "count"},
    {"core.stream.repair.added_per_record", "vertices/record"},
    {"core.stream.compact.count", "count"},
    {"core.stream.compact.shards_rewritten", "count"},
    {"core.stream.compact.seconds", "s"},
    {"core.engine.publish.p50_us", "us"},
    {"core.engine.snapshot.queries", "count"},
    {"core.engine.snapshot.p50_us", "us"},
    {"core.engine.snapshot.p90_us", "us"},
    {"core.engine.snapshot.p99_us", "us"},
    {"core.engine.snapshot.generator_late_ms", "ms"},
    {"io.bytes_read", "bytes"},
    {"io.bytes_written", "bytes"},
    {"io.scans", "count"},
    {"io.files_opened", "count"},
    {"io.retries", "count"},
    {"trace.coverage", "ratio"},
    {"trace.overhead", "ratio"},
};

template <size_t N>
void AddMetrics(const MetricSpec (&specs)[N], const MetricValues& values,
                WorkloadResult* result) {
  size_t known = 0;
  for (const MetricSpec& spec : specs) {
    const auto it = values.find(spec.name);
    known += it != values.end();
    result->Add(spec.name, it == values.end() ? 0.0 : it->second, spec.unit);
  }
  result->ledger.Check(known == values.size(),
                       "every measured value names a declared metric");
}

}  // namespace

void AddEndToEndMetrics(const MetricValues& values, WorkloadResult* result) {
  AddMetrics(kEndToEnd, values, result);
}

void AddLayerMetrics(const MetricValues& values, WorkloadResult* result) {
  AddMetrics(kPerLayer, values, result);
}

uint64_t SecondSeed(uint64_t seed) { return seed ^ 0x9e3779b97f4a7c15ULL; }

semis::Status WriteInputGraph(uint64_t num_vertices, uint64_t seed,
                              const std::string& path) {
  const semis::Graph graph = semis::GeneratePlrg(
      semis::PlrgSpec::ForVerticesAndAvgDegree(num_vertices, kAvgDegree),
      seed);
  return semis::WriteGraphToAdjacencyFile(graph, path);
}

uint64_t QuerySnapshot(const semis::MisEngine& engine, semis::Random* rng,
                       uint64_t* hits) {
  const semis::EpochSnapshotRef snapshot = engine.Snapshot();
  if (snapshot == nullptr || snapshot->set().size() == 0) return 0;
  const uint64_t n = snapshot->set().size();
  for (uint32_t i = 0; i < kQueryLookups; ++i) {
    *hits += snapshot->Contains(static_cast<semis::VertexId>(rng->Uniform(n)));
  }
  return snapshot->epoch();
}

}  // namespace perfbench
