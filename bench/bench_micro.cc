// Micro-benchmarks (google-benchmark) for the substrate hot paths:
// adjacency-file scan throughput, external sorter, external priority
// queue, and the greedy scan itself. These are the building blocks whose
// costs the paper's Table 1 I/O model abstracts.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include "core/greedy.h"
#include "gen/plrg.h"
#include "graph/adjacency_file.h"
#include "graph/graph_io.h"
#include "io/external_priority_queue.h"
#include "io/external_sorter.h"
#include "io/scratch.h"
#include "util/random.h"

namespace semis {
namespace {

// Shared fixture state: one mid-sized PLRG written to a scratch file.
struct MicroEnv {
  MicroEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-micro", &scratch));
    graph = GeneratePlrg(PlrgSpec::ForVertexCount(100000, 2.0), 7);
    path = scratch.NewFilePath("graph");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, path));
  }
  ScratchDir scratch;
  Graph graph;
  std::string path;
};

MicroEnv& Env() {
  static MicroEnv env;
  return env;
}

void BM_AdjacencyScan(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    AdjacencyFileScanner scanner;
    if (!scanner.Open(env.path).ok()) state.SkipWithError("open failed");
    VertexRecordView rec;
    bool has_next = false;
    uint64_t sum = 0;
    while (scanner.Next(&rec, &has_next).ok() && has_next) {
      sum += rec.degree;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.graph.NumDirectedEdges()));
}
BENCHMARK(BM_AdjacencyScan)->Unit(benchmark::kMillisecond);

void BM_GreedyScan(benchmark::State& state) {
  MicroEnv& env = Env();
  for (auto _ : state) {
    AlgoResult res;
    if (!RunGreedy(env.path, {}, &res).ok()) {
      state.SkipWithError("greedy failed");
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.graph.NumDirectedEdges()));
}
BENCHMARK(BM_GreedyScan)->Unit(benchmark::kMillisecond);

void BM_ExternalSorter(benchmark::State& state) {
  MicroEnv& env = Env();
  const int64_t records = state.range(0);
  for (auto _ : state) {
    ExternalSorterOptions opts;
    opts.memory_budget_bytes = 1 << 20;
    opts.scratch_dir = env.scratch.path();
    ExternalSorter sorter(opts);
    Random rng(3);
    for (int64_t i = 0; i < records; ++i) {
      uint32_t payload = static_cast<uint32_t>(i);
      if (!sorter.Add(rng.Next64(), &payload, 1).ok()) {
        state.SkipWithError("add failed");
        break;
      }
    }
    if (!sorter.Finish().ok()) state.SkipWithError("finish failed");
    SortedRecordView record;
    uint64_t count = 0;
    while (sorter.Next(&record)) count++;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ExternalSorter)->Arg(100000)->Arg(500000)
    ->Unit(benchmark::kMillisecond);

void BM_ExternalPriorityQueue(benchmark::State& state) {
  MicroEnv& env = Env();
  const int64_t entries = state.range(0);
  for (auto _ : state) {
    ExternalPriorityQueueOptions opts;
    opts.memory_budget_entries = 1 << 14;
    opts.scratch_dir = env.scratch.path();
    ExternalPriorityQueue pq(opts);
    Random rng(4);
    for (int64_t i = 0; i < entries; ++i) {
      if (!pq.Push(rng.Uniform(1 << 30), 0).ok()) {
        state.SkipWithError("push failed");
        break;
      }
    }
    uint64_t key;
    uint32_t value;
    while (!pq.Empty()) {
      if (!pq.PopMin(&key, &value).ok()) {
        state.SkipWithError("pop failed");
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * entries * 2);
}
BENCHMARK(BM_ExternalPriorityQueue)->Arg(100000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
