// Streaming-update benchmark: updates/sec of the batched apply -> repair
// loop, and repair latency as a function
// of the batch size and of the pending delta size, over a sharded PLRG.
//
// Each iteration of BM_StreamApplyRepair applies one batch of updates and
// runs Repair(); the delta is force-compacted between iterations (outside
// the timing), so every measured repair sees exactly `batch` pending
// delta entries -- that makes the batch sweep an "apply + repair latency
// vs batch size" curve, and items/sec the sustained update throughput.
//
// BM_StreamRepairAccumulating is the complement: compaction is off and
// the pending delta is never reset, so it grows to about 64k entries per
// shard over the run. A repair reads the in-memory delta state, not the
// logs, so its cost must stay flat as the delta grows; the run reports
// repair_ms_per_pass over its first and its last passes side by side.
//
// All I/O flows through the default (posix) FileSystem seam of io/env.h;
// the fixture aborts if a fault-injection env is armed, and
// BM_SeamAppendSteadyState asserts in-loop that steady-state writes
// through the seam allocate nothing. Allocation counts come from global
// operator new/delete overrides local to this binary, as in
// bench_block_decode.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <thread>
#include <vector>

#include "core/incremental_stream.h"
#include "core/greedy.h"
#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/scratch.h"
#include "util/bit_vector.h"
#include "util/random.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

void* operator new(size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace semis {
namespace {

// Vertex count knob: SEMIS_STREAM_VERTICES (default 100000, ~800k
// directed edges at avg degree 8).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_STREAM_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 100000;
}

constexpr uint32_t kNumShards = 16;

struct StreamEnv {
  StreamEnv() {
    bench::RequireDefaultIoEnv();
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-streambench", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0), 777);
    num_vertices = graph.NumVertices();
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    sorted_path = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(BuildDegreeSortedAdjacencyFile(mono, sorted_path,
                                         DegreeSortOptions{}));
    std::printf(
        "# bench_incremental_stream: %llu vertices, %llu directed edges, "
        "%u shards, %u hardware threads, io seam '%s'\n",
        static_cast<unsigned long long>(num_vertices),
        static_cast<unsigned long long>(directed_edges), kNumShards,
        std::thread::hardware_concurrency(), GetFileSystem()->Name());
  }

  // Fresh sharded copy + initial greedy set for one benchmark run
  // (updates mutate the shards, so runs must not share them).
  bool NewShardedCopy(std::string* manifest, BitVector* initial) {
    *manifest = scratch.NewFilePath("stream.sadjs");
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
  uint64_t directed_edges = 0;
};

StreamEnv& Env() {
  static StreamEnv env;
  return env;
}

// Generates one batch: ~55% inserts of fresh random pairs, ~45% deletes
// of stream-inserted edges, so the graph stays near its base size and
// deletes are (mostly) effective.
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

void BM_StreamApplyRepair(benchmark::State& state) {
  StreamEnv& env = Env();
  const size_t batch = static_cast<size_t>(state.range(0));

  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  auto mis = std::make_unique<ShardedStreamingMis>();
  if (!mis->Initialize(manifest, initial, EnginePipelineOptions{}).ok()) {
    state.SkipWithError("Initialize failed");
    return;
  }

  Random rng(2026);
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<EdgeUpdate> updates;
  uint64_t allocs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    MakeBatch(&rng, env.num_vertices, &live, &updates, batch);
    state.ResumeTiming();
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    Status s = mis->ApplyBatch(updates);
    if (s.ok()) s = mis->Repair();
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    state.PauseTiming();
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    // Reset the pending delta so the next repair sees exactly `batch`
    // entries again.
    s = mis->Compact(/*force=*/true);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(batch));
  state.counters["delta_entries"] = static_cast<double>(batch);
  const double updates_done = static_cast<double>(state.iterations()) *
                              static_cast<double>(batch);
  state.counters["allocs_per_update"] =
      updates_done > 0 ? static_cast<double>(allocs) / updates_done : 0.0;
  const StreamingMisStats& st = mis->stats();
  if (st.repair_passes > 0) {
    state.counters["repair_ms_per_pass"] =
        1e3 * st.repair_seconds / static_cast<double>(st.repair_passes);
  }
  state.counters["set_size"] = static_cast<double>(mis->set_size());
}
BENCHMARK(BM_StreamApplyRepair)
    ->Arg(1024)
    ->Arg(8192)
    ->Arg(65536)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Passes averaged for the start and end figures of the accumulating run.
constexpr int kRepairWindow = 8;
// 64 batches of 8192 updates route about 2 * 64 * 8192 / 16 = 65536
// entries to each of the 16 shard logs.
constexpr int kAccumulatingBatches = 64;
constexpr size_t kAccumulatingBatch = 8192;

void BM_StreamRepairAccumulating(benchmark::State& state) {
  StreamEnv& env = Env();
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  // compact_threshold_entries stays 0: the delta only ever grows.
  auto mis = std::make_unique<ShardedStreamingMis>();
  if (!mis->Initialize(manifest, initial, EnginePipelineOptions{}).ok()) {
    state.SkipWithError("Initialize failed");
    return;
  }

  Random rng(2027);
  std::vector<std::pair<VertexId, VertexId>> live;
  std::vector<EdgeUpdate> updates;
  std::vector<double> repair_ms;
  for (auto _ : state) {
    state.PauseTiming();
    MakeBatch(&rng, env.num_vertices, &live, &updates, kAccumulatingBatch);
    state.ResumeTiming();
    Status s = mis->ApplyBatch(updates);
    const double repair_before = mis->stats().repair_seconds;
    if (s.ok()) s = mis->Repair();
    state.PauseTiming();
    repair_ms.push_back(1e3 * (mis->stats().repair_seconds - repair_before));
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      state.ResumeTiming();
      break;
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kAccumulatingBatch));
  state.counters["delta_entries_per_shard"] =
      static_cast<double>(mis->stats().pending_delta_entries) / kNumShards;
  if (repair_ms.size() >= 2 * kRepairWindow) {
    const auto mean = [](auto first, auto last) {
      double sum = 0.0;
      for (auto it = first; it != last; ++it) sum += *it;
      return sum / static_cast<double>(last - first);
    };
    state.counters["repair_ms_per_pass_start"] =
        mean(repair_ms.begin(), repair_ms.begin() + kRepairWindow);
    state.counters["repair_ms_per_pass_end"] =
        mean(repair_ms.end() - kRepairWindow, repair_ms.end());
  }
  state.counters["set_size"] = static_cast<double>(mis->set_size());
}
BENCHMARK(BM_StreamRepairAccumulating)
    ->Iterations(kAccumulatingBatches)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// Baseline for the "maintain vs re-solve" argument: one full greedy
// solve of the same sharded graph, i.e. what every batch would cost
// without incremental maintenance.
void BM_FromScratchGreedy(benchmark::State& state) {
  StreamEnv& env = Env();
  std::string manifest;
  BitVector initial;
  if (!env.NewShardedCopy(&manifest, &initial)) {
    state.SkipWithError("sharded copy setup failed");
    return;
  }
  for (auto _ : state) {
    AlgoResult res;
    Status s = RunGreedy(manifest, {}, &res);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(res.set_size);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(env.directed_edges));
}
BENCHMARK(BM_FromScratchGreedy)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The write side of the I/O seam in isolation: steady-state
// appends through SequentialFileWriter -- buffered memcpy plus a
// FileSystem write per buffer fill -- must allocate nothing once the
// writer is open. The assertion runs inside the timing loop, so a heap
// allocation smuggled into the seam's hot path fails the nightly gate.
// Each iteration rewrites the same scratch file (O_TRUNC on open), so
// disk usage stays bounded no matter how many iterations run.
void BM_SeamAppendSteadyState(benchmark::State& state) {
  StreamEnv& env = Env();
  const std::string path = env.scratch.NewFilePath("seam-append.bin");
  constexpr size_t kAppends = 256;
  std::vector<char> payload(4096, 'x');
  uint64_t total_bytes = 0;
  for (auto _ : state) {
    SequentialFileWriter writer;
    Status s = writer.Open(path);
    if (s.ok()) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      for (size_t i = 0; s.ok() && i < kAppends; ++i) {
        s = writer.Append(payload.data(), payload.size());
      }
      const uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - before;
      if (s.ok() && allocs != 0) {
        state.SkipWithError("steady-state seam append allocated");
        break;
      }
      Status close = writer.Close();
      if (s.ok()) s = close;
      total_bytes += kAppends * payload.size();
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(total_bytes));
  state.counters["allocs_per_append"] = 0.0;
}
BENCHMARK(BM_SeamAppendSteadyState)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
