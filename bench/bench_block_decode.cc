// Decode-path benchmark of the zero-copy block pipeline (ISSUE 5): how
// fast a sharded file streams through ManifestOrderedShardCursor's
// arena-backed block ring, and -- the point of the refactor -- how much
// heap allocation the decode hot path performs.
//
// Three decode strategies over the same sharded PLRG:
//   * BM_BlockCursorDecode/T: the block ring with T decoder threads and a
//     persistent RecordBlockPool, i.e. the steady state of a long-running
//     pipeline. Reports records/s plus the ring counters and
//     allocs_per_record.
//   * BM_WholeShardDecode: the RETIRED pre-block strategy (each shard
//     decoded into one freshly allocated flat vector), kept here as the
//     old-vs-new allocation baseline.
//   * BM_SequentialShardDecode: the plain per-record sequential scanner.
// Plus BM_BlockAppendSteadyState, which isolates the block layer and
// aborts (SkipWithError -> nightly gate failure) if a steady-state append
// pass allocates at all: the "zero heap allocations per record" claim,
// enforced in the timing loop.
//
// Allocation counts come from global operator new/delete overrides local
// to this binary; they count every allocation on the calling thread AND
// the decoder threads, so the cursor cannot hide traffic in its workers.
#include <benchmark/benchmark.h>

#include "bench_common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "gen/plrg.h"
#include "graph/degree_sort.h"
#include "graph/graph_io.h"
#include "graph/record_block.h"
#include "graph/sharded_adjacency_file.h"
#include "io/env.h"
#include "io/file.h"
#include "io/scratch.h"
#include "util/thread_pool.h"

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

// Order-sensitive fold shared by every drain below, so all strategies are
// held to one checksum definition: any reorder, drop, or duplication of a
// record (or a stale copy of this formula) breaks the equality assertion.
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
    // Order-sensitive checksum of the reference stream: every strategy
    // below must reproduce it, so a reordering/dropping bug aborts the
    // timing loop instead of producing a fast wrong number.
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

// The new path: record-granular block ring, persistent block pool.
void BM_BlockCursorDecode(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  const uint32_t threads = static_cast<uint32_t>(state.range(0));
  RecordBlockPool block_pool;  // shared across iterations: steady state
  uint64_t allocs = 0;
  IoStats io;
  for (auto _ : state) {
    ThreadPool pool(threads);
    ManifestOrderedShardCursor cursor(&io);
    BlockRingOptions ring;
    ring.pool = &block_pool;
    Status s = cursor.Open(env.manifest, &pool, ring);
    uint64_t checksum = 0, position = 0;
    if (s.ok()) {
      const uint64_t before = g_allocations.load(std::memory_order_relaxed);
      VertexRecordView view;
      bool has_next = false;
      while (true) {
        s = cursor.Next(&view, &has_next);
        if (!s.ok() || !has_next) break;
        FoldRecord(view.id, view.begin(), view.end(), &position, &checksum);
      }
      allocs += g_allocations.load(std::memory_order_relaxed) - before;
      Status close = cursor.Close();
      if (s.ok()) s = close;
    }
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (checksum != env.reference_checksum) {
      state.SkipWithError("block cursor stream differs from the sequential "
                          "sharded scan");
      break;
    }
  }
  const double records = static_cast<double>(state.iterations()) *
                         static_cast<double>(env.num_vertices);
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["threads"] = threads;
  state.counters["allocs_per_record"] =
      records > 0 ? static_cast<double>(allocs) / records : 0.0;
  state.counters["blocks_decoded"] =
      static_cast<double>(io.blocks_decoded) /
      std::max<int64_t>(state.iterations(), 1);
  state.counters["peak_buffered_bytes"] =
      static_cast<double>(io.peak_buffered_bytes);
  state.counters["arena_bytes"] = static_cast<double>(io.arena_bytes);
}
BENCHMARK(BM_BlockCursorDecode)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The retired pre-block strategy: every shard decoded into one freshly
// allocated flat word vector before the consumer sees a record. Kept as
// the allocation/memory baseline the block ring is diffed against.
void BM_WholeShardDecode(benchmark::State& state) {
  BlockDecodeEnv& env = Env();
  uint64_t allocs = 0;
  size_t peak_shard_bytes = 0;
  for (auto _ : state) {
    ShardedAdjacencyManifest manifest;
    Status s = ReadShardedAdjacencyManifest(env.manifest, &manifest);
    uint64_t checksum = 0, position = 0;
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (uint32_t k = 0; s.ok() && k < manifest.num_shards(); ++k) {
      std::vector<VertexId> words;  // fresh per shard, like the old slots
      AdjacencyShardReader reader;
      s = reader.Open(env.manifest, manifest, k);
      VertexRecordView view;
      bool has_next = false;
      while (s.ok()) {
        s = reader.Next(&view, &has_next);
        if (!s.ok() || !has_next) break;
        words.push_back(view.id);
        words.push_back(view.degree);
        words.insert(words.end(), view.begin(), view.end());
      }
      if (s.ok()) s = reader.Close();
      peak_shard_bytes =
          std::max(peak_shard_bytes, words.size() * sizeof(VertexId));
      for (size_t i = 0; i < words.size();) {
        const uint32_t degree = words[i + 1];
        FoldRecord(words[i], words.data() + i + 2,
                   words.data() + i + 2 + degree, &position, &checksum);
        i += 2 + degree;
      }
    }
    allocs += g_allocations.load(std::memory_order_relaxed) - before;
    if (!s.ok()) {
      state.SkipWithError(s.ToString().c_str());
      break;
    }
    if (checksum != env.reference_checksum) {
      state.SkipWithError("whole-shard decode differs from the sequential "
                          "sharded scan");
      break;
    }
  }
  const double records = static_cast<double>(state.iterations()) *
                         static_cast<double>(env.num_vertices);
  state.SetItemsProcessed(static_cast<int64_t>(records));
  state.counters["allocs_per_record"] =
      records > 0 ? static_cast<double>(allocs) / records : 0.0;
  state.counters["peak_buffered_bytes"] =
      static_cast<double>(peak_shard_bytes);
}
BENCHMARK(BM_WholeShardDecode)->Unit(benchmark::kMillisecond)->UseRealTime();

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

// The block layer in isolation: appending records to a pooled block must
// allocate NOTHING once the arena has grown to size. The assertion runs
// inside the timing loop, so a regression fails the nightly gate.
void BM_BlockAppendSteadyState(benchmark::State& state) {
  constexpr uint32_t kRecords = 4096;
  constexpr uint32_t kDegree = 8;
  RecordBlockPool pool;
  {
    // Warm-up pass grows the arena to its steady-state capacity.
    RecordBlock block = pool.Acquire();
    for (uint32_t r = 0; r < kRecords; ++r) {
      VertexId* dst = block.BeginRecord(r, kDegree);
      for (uint32_t j = 0; j < kDegree; ++j) dst[j] = r + j;
      block.CommitRecord();
    }
    pool.Release(std::move(block));
  }
  for (auto _ : state) {
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    RecordBlock block = pool.Acquire();
    uint64_t checksum = 0;
    for (uint32_t r = 0; r < kRecords; ++r) {
      VertexId* dst = block.BeginRecord(r, kDegree);
      for (uint32_t j = 0; j < kDegree; ++j) dst[j] = r + j;
      block.CommitRecord();
      checksum += block.view(r).neighbor(0);
    }
    benchmark::DoNotOptimize(checksum);
    pool.Release(std::move(block));
    const uint64_t allocs =
        g_allocations.load(std::memory_order_relaxed) - before;
    if (allocs != 0) {
      state.SkipWithError("steady-state block append allocated");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations() * kRecords);
  state.counters["allocs_per_record"] = 0.0;
}
BENCHMARK(BM_BlockAppendSteadyState)->Unit(benchmark::kMicrosecond);

// The I/O seam in isolation (ISSUE 10): streaming a shard through
// SequentialFileReader -- now one virtual FileSystem dispatch per buffer
// fill -- must stay allocation-free in steady state. The seam may cost a
// branch and an indirect call, never a heap allocation; the assertion
// runs inside the timing loop like BM_BlockAppendSteadyState above.
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
