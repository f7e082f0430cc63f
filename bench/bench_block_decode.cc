// Decode-path benchmark: how fast a sharded file streams through the one
// record scanner (AdjacencyFileScanner), and how much heap allocation the
// read path performs.
//   * BM_SequentialShardDecode: the per-record sequential scan of a
//     16-shard store, the scan every ordered pass (greedy, Repair,
//     verify) makes. Reports records/s and allocs_per_record.
//   * BM_SeamReadSteadyState: the I/O seam in isolation; aborts
//     (SkipWithError -> nightly gate failure) if a steady-state read pass
//     allocates at all.
//
// Allocation counts come from global operator new/delete overrides local
// to this binary.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/scratch.h"

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

// Vertex count knob: SEMIS_BLOCK_VERTICES (default 200000; ~1.6M directed
// edges at avg degree 8).
uint64_t BenchVertexCount() {
  const char* env = std::getenv("SEMIS_BLOCK_VERTICES");
  if (env != nullptr) {
    uint64_t v = std::strtoull(env, nullptr, 10);
    if (v > 0) return v;
  }
  return 200000;
}

constexpr uint32_t kNumShards = 16;

// Order-sensitive fold of a record stream: any reorder, drop, or
// duplication of a record breaks the equality assertion below.
void FoldRecord(VertexId id, const VertexId* begin, const VertexId* end,
                uint64_t* position, uint64_t* checksum) {
  *checksum += (++*position) * (id + 1);
  for (const VertexId* p = begin; p != end; ++p) *checksum += *p;
}

struct BlockDecodeEnv {
  BlockDecodeEnv() {
    bench::RequireDefaultIoEnv();
    SEMIS_BENCH_CHECK_OK(ScratchDir::Create("semis-blockbench", &scratch));
    Graph graph = GeneratePlrg(
        PlrgSpec::ForVerticesAndAvgDegree(BenchVertexCount(), 8.0), 987);
    num_vertices = graph.NumVertices();
    directed_edges = graph.NumDirectedEdges();
    std::string mono = scratch.NewFilePath("graph.adj");
    SEMIS_BENCH_CHECK_OK(WriteGraphToAdjacencyFile(graph, mono));
    std::string sorted = scratch.NewFilePath("sorted.sadj");
    SEMIS_BENCH_CHECK_OK(
        BuildDegreeSortedAdjacencyFile(mono, sorted, DegreeSortOptions{}));
    manifest = scratch.NewFilePath("sharded.sadjs");
    SEMIS_BENCH_CHECK_OK(ShardAdjacencyFile(sorted, manifest, kNumShards));
    // Order-sensitive checksum of the reference stream: every timed scan
    // must reproduce it, so a reordering/dropping bug aborts the timing
    // loop instead of producing a fast wrong number.
    reference_checksum = 0;
    AdjacencyFileScanner scanner;
    SEMIS_BENCH_CHECK_OK(scanner.Open(manifest));
    VertexRecordView view;
    bool has_next = false;
    uint64_t position = 0;
    while (scanner.Next(&view, &has_next).ok() && has_next) {
      FoldRecord(view.id, view.begin(), view.end(), &position,
                 &reference_checksum);
    }
    std::printf("# bench_block_decode: %llu vertices, %llu directed edges, "
                "%u shards, io seam '%s'\n",
                static_cast<unsigned long long>(num_vertices),
                static_cast<unsigned long long>(directed_edges), kNumShards,
                GetFileSystem()->Name());
  }

  ScratchDir scratch;
  std::string manifest;
  uint64_t num_vertices = 0;
  uint64_t directed_edges = 0;
  uint64_t reference_checksum = 0;
};

BlockDecodeEnv& Env() {
  static BlockDecodeEnv env;
  return env;
}

// The plain per-record sequential scanner, for the throughput column.
void BM_SequentialShardDecode(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  uint64_t allocs = 0;
  for (auto _ : state) {
    AdjacencyFileScanner scanner;
    Status s = scanner.Open(env.manifest);
    uint64_t checksum = 0, position = 0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    if (s.ok()) {
      VertexRecordView view;
      bool has_next = false;
      while (true) {
        s = scanner.Next(&view, &has_next);
        if (!s.ok() || !has_next) break;
        FoldRecord(view.id, view.begin(), view.end(), &position, &checksum);
      }
    }
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (checksum != env.reference_checksum) {
      state.SkipWithError("sequential scan checksum unstable across runs");
      break;
    }
  }
  const double records = static_cast<double>(state.iterations()) *
                         static_cast<double>(env.num_vertices);
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["allocs_per_record"] =
      records > 0 ? static_cast<double>(allocs) / records : 0.0;
}
BENCHMARK(BM_SequentialShardDecode)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The I/O seam in isolation: streaming a shard through
// SequentialFileReader -- one virtual FileSystem dispatch per buffer
// fill -- must stay allocation-free in steady state. The seam may cost a
// branch and an indirect call, never a heap allocation; the assertion
// runs inside the timing loop.
void BM_SeamReadSteadyState(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  const std::string shard0 = env.manifest + ".shard0";
  std::vector<char> chunk(64 * 1024);
  uint64_t total_bytes = 0;
  for (auto _ : state) {
    SequentialFileReader reader;
    Status s = reader.Open(shard0);
    uint64_t fold = 0;
    if (s.ok()) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      size_t got = 0;
      do {
        s = reader.Read(chunk.data(), chunk.size(), &got);
        if (got > 0) {
          total_bytes += got;
          fold += static_cast<unsigned char>(chunk[got - 1]);
        }
      } while (s.ok() && got == chunk.size());
      const uint64_t allocs =
          g_allocations.load(std::memory_order_relaxed) - before;
      if (s.ok() && allocs != 0) {
        state.SkipWithError("steady-state seam read allocated");
        break;
      }
      Status close = reader.Close();
      if (s.ok()) s = close;
    }
    benchmark::DoNotOptimize(fold);
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
  }
  state.SetBytesProcessed(static_cast<int64_t>(total_bytes));
  state.counters["allocs_per_read"] = 0.0;
}
BENCHMARK(BM_SeamReadSteadyState)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace semis

BENCHMARK_MAIN();
