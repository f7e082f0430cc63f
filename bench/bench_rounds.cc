// Thread-scaling benchmark of the min-id rounds engine (ISSUE 9 /
// ROADMAP "second solve engine"): deterministic Luby-style rounds over a
// sharded PLRG, swept over thread counts.
//
// Three properties are measured/checked:
//   * correctness: every timed run must reproduce the sequential
//     reference loop bit for bit (the engine's determinism-by-
//     construction claim); the bench aborts the timing loop if not;
//   * scaling: rounds/sec and edge throughput should grow with threads,
//     because every pass fans the shards out over the pool. Two full
//     passes per round put the ceiling at roughly half the greedy
//     scan's single-pass decode rate;
//   * quality: min-id ignores degrees, so its set trails degree-greedy.
//     The startup banner prints the |IS| table on the PLRG/ER pair so
//     nightly diffs catch quality drift alongside throughput drift.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <cstdio>
#include <thread>

#include "core/greedy.h"
#include "core/rounds_engine.h"
#include "gen/generators.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"

namespace semis {
namespace {

// Vertex count knob: SEMIS_ROUNDS_VERTICES (default 250000, matching
// bench_parallel_swap's SEMIS_PARALLEL_VERTICES).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_ROUNDS_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 250000;
}

constexpr uint32_t kNumShards = 16;

struct RoundsEnv {
  RoundsEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-roundsbench", &scratch));
    const uint64_t n = BenchVertexCount();
    Graph plrg =
        GeneratePlrg(PlrgSpec::ForVerticesAndAvgDegree(n, 8.0), 4321);
    directed_edges = plrg.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("plrg.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(plrg, mono));
    manifest = scratch.NewFilePath("plrg.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(mono, manifest, kNumShards));
    std::printf(
        "# bench_rounds: %llu vertices, %llu directed edges, %u shards, "
        "%u hardware threads\n",
        static_cast<unsigned long long>(plrg.NumVertices()),
        static_cast<unsigned long long>(directed_edges), kNumShards,
        std::thread::hardware_concurrency());

    // Reference result: the sequential rounds loop. Every timed run is
    // held to this bit for bit.
    AlgoResult ref;
    SEMIS_BENCH_CHECK_OK(
        RunMinIdRoundsReference(manifest, MinIdRoundsOptions{}, &ref,
                                nullptr));
    reference_set = ref.in_set;
    reference_size = ref.set_size;
    reference_rounds = ref.rounds;

    // Quality table: rounds vs degree-greedy on the PLRG and an ER graph
    // of the same scale (the ISSUE 9 quality column). Printed once so
    // tools/bench_diff.py picks drift out of the nightly transcript.
    std::printf("# quality: graph, rounds |IS|, degree-greedy |IS|, ratio\n");
    PrintQualityRow("plrg-avg8", mono, reference_size);
    const uint64_t er_n = n;
    Graph er = GenerateErdosRenyi(
        static_cast<VertexId>(er_n), er_n * 4, 17);
    std::string er_mono = scratch.NewFilePath("er.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(er, er_mono));
    std::string er_manifest = scratch.NewFilePath("er.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(er_mono, er_manifest,
                                            kNumShards));
    AlgoResult er_rounds;
    SEMIS_BENCH_CHECK_OK(
        RunMinIdRounds(er_manifest, MinIdRoundsOptions{}, &er_rounds));
    PrintQualityRow("er-avg8", er_mono, er_rounds.set_size);
  }

  void PrintQualityRow(const char* name, const std::string& mono,
                       uint64_t rounds_size) {
    std::string sorted = scratch.NewFilePath(std::string(name) + ".sadj");
    SEMIS_BENCH_CHECK_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    AlgoResult greedy;
    SEMIS_BENCH_CHECK_OK(RunGreedy(sorted, GreedyOptions{}, &greedy));
    std::printf("# quality: %s, %llu, %llu, %.4f\n", name,
                static_cast<unsigned long long>(rounds_size),
                static_cast<unsigned long long>(greedy.set_size),
                static_cast<double>(rounds_size) /
                    static_cast<double>(greedy.set_size));
  }

  ScratchDir scratch;
  std::string manifest;
  uint64_t directed_edges = 0;
  BitVector reference_set;
  uint64_t reference_size = 0;
  uint64_t reference_rounds = 0;
};

RoundsEnv& Env() {
  static RoundsEnv env;
  return env;
}

bool SameSet(const BitVector& a, const BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

void BM_MinIdRounds(benchmark::State& state) {
  RoundsEnv& env = Env();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  uint64_t rounds = 0;
  for (auto _ : state) {
    AlgoResult res;
    MinIdRoundsOptions opts;
    opts.pipeline.num_threads = threads;
    Status s = RunMinIdRounds(env.manifest, opts, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (res.rounds != env.reference_rounds ||
        !SameSet(res.in_set, env.reference_set)) {
      state.SkipWithError("result differs from sequential reference");
      break;
    }
    rounds = res.rounds;
    benchmark::DoNotOptimize(res.set_size);
  }
  // items/sec = directed edges decoded per wall second; every round is
  // two full passes, so the decode volume is 2 * edges * rounds.
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * env.directed_edges *
                                               rounds));
  state.counters["threads"] = threads;
  state.counters["rounds"] = static_cast<double>(rounds);
  state.counters["rounds_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * rounds),
      benchmark::Counter::kIsRate);
  state.counters["set_size"] = static_cast<double>(env.reference_size);
}
BENCHMARK(BM_MinIdRounds)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Baseline: the sequential reference loop on the same sharded input, for
// the "parallel executor vs reference" column.
void BM_SequentialReference(benchmark::State& state) {
  RoundsEnv& env = Env();
  for (auto _ : state) {
    AlgoResult res;
    Status s = RunMinIdRoundsReference(env.manifest, MinIdRoundsOptions{},
                                       &res, nullptr);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (!SameSet(res.in_set, env.reference_set)) {
      state.SkipWithError("sequential result unstable across runs");
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(2 * env.directed_edges *
                                               env.reference_rounds));
}
BENCHMARK(BM_SequentialReference)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
