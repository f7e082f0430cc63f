// MisEngine epoch-publication benchmark: the cost of the reader and publisher
// sides of the RCU path.
//
//   BM_SnapshotAcquire   Snapshot() acquisitions/sec on the reader side
//                        while a mutator thread continuously runs
//                        apply -> repair -> publish cycles underneath --
//                        the "snapshots never block on mutation" claim,
//                        measured. The published-epoch counter proves the
//                        mutator actually made progress during the run.
//   BM_EpochCycle        epochs/sec of the full mutate -> publish cycle
//                        (apply one batch, repair, publish), the
//                        sustained rate at which the engine can turn an
//                        update stream into served epochs. The delta is
//                        force-compacted between iterations (outside the
//                        timing) so every cycle sees exactly `batch`
//                        pending entries.
//
// Both benches run on a sharded PLRG (SEMIS_ENGINE_VERTICES knob,
// default 100000) with the engine adopting a greedy initial set, so no
// solve cost pollutes the numbers.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "core/greedy.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace semis {
namespace {

uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_ENGINE_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 100000;
}

constexpr uint32_t kNumShards = 16;

struct EngineEnv {
  EngineEnv() {
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-enginebench", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0), 777);
    num_vertices = graph.NumVertices();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    sorted_path = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(BuildDegreeSortedAdjacencyFile(mono, sorted_path,
                                         DegreeSortOptions{}));
    std::printf(
        "# bench_engine_snapshot: %llu vertices, %u shards, "
        "%u hardware threads\n",
        static_cast<unsigned long long>(num_vertices), kNumShards,
        std::thread::hardware_concurrency());
  }

  // Fresh sharded copy + initial greedy set (the engine's mutation arm
  // writes SDELTA logs next to the shards, so runs must not share them).
  bool NewShardedCopy(std::string* manifest, BitVector* initial) {
    *manifest = scratch.NewFilePath("engine.sadjs");
    if (!ShardAdjacencyFile(sorted_path, *manifest, kNumShards).ok()) {
      return false;
    }
    AlgoResult greedy;
    if (!RunGreedy(*manifest, {}, &greedy).ok()) return false;
    *initial = std::move(greedy.in_set);
    return true;
  }

  ScratchDir scratch;
  std::string sorted_path;
  uint64_t num_vertices = 0;
};

EngineEnv& Env() {
  static EngineEnv env;
  return env;
}

void MakeBatch(Random* rng, uint64_t n,
               std::vector<std::pair<VertexId, VertexId>>* live,
               std::vector<EdgeUpdate>* out, size_t batch) {
  out->clear();
  for (size_t i = 0; i < batch; ++i) {
    if (live->empty() || rng->OneIn(0.55)) {
      VertexId u = static_cast<VertexId>(rng->Uniform(n));
      VertexId v = static_cast<VertexId>(rng->Uniform(n));
      if (u == v) v = (v + 1) % static_cast<VertexId>(n);
      out->push_back(EdgeUpdate::Insert(u, v));
      live->emplace_back(u, v);
    } else {
      size_t idx = static_cast<size_t>(rng->Uniform(live->size()));
      auto [u, v] = (*live)[idx];
      (*live)[idx] = live->back();
      live->pop_back();
      out->push_back(EdgeUpdate::Delete(u, v));
    }
  }
}

void BM_SnapshotAcquire(benchmark::State& state) {
  EngineEnv& env = Env();
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  MisEngineOptions opts;
  // Keep the pending delta bounded however long the reader loop runs.
  opts.pipeline.compact_threshold_entries = 65536;
  MisEngine engine(opts);
  if (!engine.OpenSharded(manifest, initial).ok()) {
    state.SkipWithError("OpenSharded failed");
    return;
  }
  if (!engine.Prepare().ok()) {
    state.SkipWithError("Prepare failed");
    return;
  }

  // Mutator thread: continuous apply -> repair -> publish underneath the
  // measured reader. Mutating calls are serialized on this one thread,
  // as the engine's threading contract requires.
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> published{0};
  std::thread mutator([&] {
    Random rng(2026);
    std::vector<std::pair<VertexId, VertexId>> live;
    std::vector<EdgeUpdate> updates;
    while (!stop.load(std::memory_order_relaxed)) {
      MakeBatch(&rng, env.num_vertices, &live, &updates, 512);
      Status s = engine.ApplyBatch(updates);
      if (s.ok()) s = engine.Repair();
      if (!s.ok()) break;
      engine.Publish();
      published.fetch_add(1, std::memory_order_relaxed);
    }
  });

  uint64_t last_epoch = 0;
  for (auto _ : state) {
    EpochSnapshotRef snap = engine.Snapshot();
    benchmark::DoNotOptimize(snap);
    last_epoch = snap->epoch();
  }
  stop.store(true, std::memory_order_relaxed);
  mutator.join();

  state.SetItemsProcessed(state.iterations());
  state.counters["epochs_published"] =
      static_cast<double>(published.load());
  state.counters["last_epoch"] = static_cast<double>(last_epoch);
}
BENCHMARK(BM_SnapshotAcquire)->UseRealTime();

void BM_EpochCycle(benchmark::State& state) {
  EngineEnv& env = Env();
  const size_t batch = static_cast<size_t>(state.range(0));
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  MisEngine engine{MisEngineOptions{}};
  if (!engine.OpenSharded(manifest, initial).ok()) {
    state.SkipWithError("OpenSharded failed");
    return;
  }

  Random rng(4242);
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<EdgeUpdate> updates;
  for (auto _ : state) {
    state.PauseTiming();
    MakeBatch(&rng, env.num_vertices, &live, &updates, batch);
    state.ResumeTiming();
    Status s = engine.ApplyBatch(updates);
    if (s.ok()) s = engine.Repair();
    EpochSnapshotRef snap;
    if (s.ok()) snap = engine.Publish();
    benchmark::DoNotOptimize(snap);
    state.PauseTiming();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    // Bound the pending delta so every cycle repairs exactly `batch`
    // entries (same discipline as bench_incremental_stream).
    s = engine.Compact(/*force=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.counters["batch"] = static_cast<double>(batch);
  EpochSnapshotRef last = engine.Snapshot();
  if (last != nullptr) {
    state.counters["set_size"] = static_cast<double>(last->set_size());
    state.counters["epochs"] = static_cast<double>(last->epoch());
  }
}
BENCHMARK(BM_EpochCycle)
    ->Arg(1024)
    ->Arg(8192)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
