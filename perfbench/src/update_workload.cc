// update-stream: edge updates arrive in fixed-size batches while readers
// query published epochs.
//
// Set-up generates a PLRG, degree-sorts it, splits it into shards and
// opens a MisEngine on the store with greedy (the `semis_cli update`
// pipeline). The timed stream runs ApplyBatch -> Repair -> Publish per
// batch; an open-loop reader thread meanwhile queries Snapshot(). After
// the timing, Compact(force) folds the delta in and the final epoch is
// verified against the compacted store. Traced runs wrap the same calls
// in spans.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/verify.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "trace.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct StreamShape {
  uint64_t vertices;
  uint32_t batches;
  uint32_t batch_size;
};

StreamShape Shape(Scale scale) {
  if (scale == Scale::kTiny) return {10'000, 4, 256};
  return {250'000, 100, 6144};
}

// Shards of the store.
constexpr uint32_t kUpdateShards = 16;
// The automatic-compaction threshold `semis_cli update` defaults to.
constexpr uint64_t kCompactThresholdEntries = 65536;
// Share of inserts; the rest delete an edge the stream inserted earlier.
constexpr double kInsertShare = 0.55;

using Batch = std::vector<semis::EdgeUpdate>;

// The seeded update stream: inserts of random vertex pairs not live in
// the stream yet, and deletes of live stream-inserted edges.
std::vector<Batch> MakeStream(const StreamShape& shape, uint64_t seed) {
  semis::Random rng(seed ^ 0x5712ea3d0f1e2b47ULL);
  std::vector<std::pair<semis::VertexId, semis::VertexId>> live;
  std::unordered_map<uint64_t, size_t> live_index;
  const auto key = [](semis::VertexId u, semis::VertexId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  };
  std::vector<Batch> batches(shape.batches);
  for (Batch& batch : batches) {
    batch.reserve(shape.batch_size);
    while (batch.size() < shape.batch_size) {
      if (live.empty() || rng.OneIn(kInsertShare)) {
        const auto u =
            static_cast<semis::VertexId>(rng.Uniform(shape.vertices));
        const auto v =
            static_cast<semis::VertexId>(rng.Uniform(shape.vertices));
        if (u == v || live_index.count(key(u, v)) != 0) continue;
        live_index[key(u, v)] = live.size();
        live.emplace_back(u, v);
        batch.push_back(semis::EdgeUpdate::Insert(u, v));
      } else {
        const size_t i = rng.Uniform(live.size());
        const auto [u, v] = live[i];
        live_index[key(live.back().first, live.back().second)] = i;
        live[i] = live.back();
        live.pop_back();
        live_index.erase(key(u, v));
        batch.push_back(semis::EdgeUpdate::Delete(u, v));
      }
    }
  }
  return batches;
}

/// Open-loop snapshot reader: issues one QuerySnapshot() every millisecond
/// on its own thread and times each query from the moment it was due.
/// Fails the run when an epoch it observes is older than one it saw
/// before.
///
/// The thread polls the clock between queries instead of sleeping: on a
/// virtual machine, waking an idle vCPU takes tens of microseconds and,
/// when the host is busy, milliseconds, which would swamp a query of about
/// a microsecond. So it needs a core of its own; its CPU time is excluded
/// from ProcessCpuSeconds().
class SnapshotReader {
 public:
  SnapshotReader(const semis::MisEngine* engine, uint64_t seed)
      : engine_(engine), seed_(seed) {
    // No reallocation while timing: a few minutes of queries fit.
    latencies_us_.reserve(1 << 18);
  }
  ~SnapshotReader() { Stop(); }
  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  void Start() { thread_ = std::thread([this] { Loop(); }); }
  /// Stops and joins the thread (idempotent).
  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Latency of each query from its due time, in microseconds.
  const std::vector<double>& latencies_us() const { return latencies_us_; }
  /// Largest delay between a query's due time and its start, in ms.
  double generator_late_ms() const { return generator_late_ms_; }
  /// Queries that saw an epoch older than an earlier one.
  uint64_t backwards() const { return backwards_; }
  /// Queries that found no published epoch.
  uint64_t empty() const { return empty_; }

 private:
  void Loop();

  const semis::MisEngine* engine_;
  uint64_t seed_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_us_;
  double generator_late_ms_ = 0.0;
  uint64_t backwards_ = 0;
  uint64_t empty_ = 0;
  uint64_t hits_ = 0;
  // Declared last: the loop uses every member above.
  std::thread thread_;
};

void SnapshotReader::Loop() {
  BeginExcludedThread();
  semis::Random rng(seed_);
  uint64_t last_epoch = 0;
  Clock::time_point due = Clock::now();
  while (!stop_.load(std::memory_order_relaxed)) {
    Clock::time_point begin = Clock::now();
    while (begin < due) begin = Clock::now();
    generator_late_ms_ =
        std::max(generator_late_ms_, SecondsBetween(due, begin) * 1e3);
    const uint64_t epoch = QuerySnapshot(*engine_, &rng, &hits_);
    if (epoch == 0) ++empty_;
    if (epoch < last_epoch) ++backwards_;
    last_epoch = std::max(last_epoch, epoch);
    latencies_us_.push_back(SecondsBetween(due, Clock::now()) * 1e6);
    due += std::chrono::milliseconds(1);
  }
  EndExcludedThread();
}

// Per-layer facts of one set-up.
struct SetupFacts {
  double seconds = 0.0;
  double sort_wall_s = 0.0;
  double sort_cpu_s = 0.0;
  size_t sort_peak_bytes = 0;
  semis::IoStats sort_io;
  double shard_wall_s = 0.0;
  semis::IoStats shard_io;
  double open_wall_s = 0.0;
  double open_cpu_s = 0.0;
  semis::IoStats greedy_io;
};

// A sharded store with an engine open on it, plus the stream to apply.
struct Store {
  std::string dir;
  std::string manifest;
  std::unique_ptr<semis::MisEngine> engine;
  std::vector<Batch> stream;
};

semis::MisEngineOptions EngineOptions() {
  semis::MisEngineOptions options;
  options.degree_sort = true;
  options.swap = semis::SwapMode::kNone;
  options.pipeline.num_threads = kUpdateThreads;
  options.pipeline.compact_threshold_entries = kCompactThresholdEntries;
  return options;
}

// Seconds and process CPU seconds of span `id`.
void SpanTimes(const SpanRecorder& recorder, uint32_t id, double* wall_s,
               double* cpu_s) {
  *wall_s = recorder.spans()[id - 1].Seconds();
  *cpu_s = recorder.spans()[id - 1].cpu_s;
}

// Generate -> sort -> shard -> open with greedy -> bind the update arm.
bool SetUp(const RunConfig& config, uint64_t seed, const std::string& dir,
           SpanRecorder* recorder, Ledger* ledger, Store* store,
           SetupFacts* facts) {
  const StreamShape shape = Shape(config.scale);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  store->dir = dir;
  store->manifest = dir + "/store.sadjs";
  const std::string input = dir + "/input.sadj";
  const std::string sorted = dir + "/sorted.sadj";
  const Clock::time_point t0 = Clock::now();
  SpanRecorder::Scope root(recorder, "setup");
  {
    SpanRecorder::Scope span(recorder, "generate");
    if (!ledger->Call(WriteInputGraph(shape.vertices, seed, input),
                      "WriteInputGraph")) {
      return false;
    }
    store->stream = MakeStream(shape, seed);
  }
  uint32_t sort_id = 0;
  {
    semis::MemoryTracker memory;
    semis::DegreeSortOptions sort_options;
    sort_options.stats = &facts->sort_io;
    sort_options.memory = &memory;
    SpanRecorder::Scope span(recorder, "graph.sort");
    sort_id = span.id();
    if (!ledger->Call(semis::BuildDegreeSortedAdjacencyFile(input, sorted,
                                                            sort_options),
                      "graph.sort")) {
      return false;
    }
    facts->sort_peak_bytes = memory.PeakBytes();
  }
  uint32_t shard_id = 0;
  {
    SpanRecorder::Scope span(recorder, "graph.shard");
    shard_id = span.id();
    if (!ledger->Call(semis::ShardAdjacencyFile(sorted, store->manifest,
                                                kUpdateShards,
                                                &facts->shard_io),
                      "graph.shard")) {
      return false;
    }
  }
  store->engine = std::make_unique<semis::MisEngine>(EngineOptions());
  uint32_t open_id = 0;
  {
    SpanRecorder::Scope span(recorder, "core.greedy");
    open_id = span.id();
    if (!ledger->Call(store->engine->OpenSharded(store->manifest),
                      "MisEngine::OpenSharded")) {
      return false;
    }
  }
  {
    SpanRecorder::Scope span(recorder, "core.engine.prepare");
    if (!ledger->Call(store->engine->Prepare(), "MisEngine::Prepare")) {
      return false;
    }
  }
  facts->seconds = SecondsBetween(t0, Clock::now());
  facts->greedy_io = store->engine->open_result().greedy.io;
  if (recorder != nullptr) {
    double shard_cpu_s = 0.0;
    SpanTimes(*recorder, sort_id, &facts->sort_wall_s, &facts->sort_cpu_s);
    SpanTimes(*recorder, shard_id, &facts->shard_wall_s, &shard_cpu_s);
    SpanTimes(*recorder, open_id, &facts->open_wall_s, &facts->open_cpu_s);
  }
  return true;
}

// What one stream measured.
struct StreamRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  uint64_t set_size = 0;
  std::vector<double> publish_ms;
  std::vector<double> apply_ms;
  std::vector<double> repair_ms;
  std::vector<double> publish_call_us;
  double repair_cpu_s = 0.0;
  double coverage = 0.0;
  // Session counters and I/O over the timed stream.
  semis::StreamingMisStats stats;
  semis::IoStats apply_io;
  semis::IoStats repair_io;
  semis::IoStats verify_io;
  double verify_wall_s = 0.0;
  // Reader.
  std::vector<double> query_us;
  double generator_late_ms = 0.0;
};

// Accumulates the traffic of `after` - `before` into `sum`.
void AddIoDelta(const semis::IoStats& before, const semis::IoStats& after,
                semis::IoStats* sum) {
  sum->bytes_read += after.bytes_read - before.bytes_read;
  sum->bytes_written += after.bytes_written - before.bytes_written;
  sum->read_calls += after.read_calls - before.read_calls;
  sum->write_calls += after.write_calls - before.write_calls;
  sum->files_opened += after.files_opened - before.files_opened;
  sum->io_retries += after.io_retries - before.io_retries;
  sum->sequential_scans += after.sequential_scans - before.sequential_scans;
  sum->records_decoded += after.records_decoded - before.records_decoded;
  sum->blocks_decoded += after.blocks_decoded - before.blocks_decoded;
}

// The timed stream, then the untimed compaction and verification.
bool RunStream(const RunConfig& config, Store* store, SpanRecorder* recorder,
               Ledger* ledger, StreamRun* out) {
  semis::MisEngine& engine = *store->engine;
  const semis::StreamingMisStats& stats = *engine.streaming_stats();
  const semis::StreamingMisStats before = stats;
  uint64_t epoch = engine.Snapshot()->epoch();
  SnapshotReader reader(&engine, config.seed);
  reader.Start();
  ResetPeakRss();
  bool ok = true;
  uint32_t root_id = 0;
  const double cpu0 = ProcessCpuSeconds();
  const Clock::time_point t0 = Clock::now();
  {
    SpanRecorder::Scope root(recorder, "stream");
    root_id = root.id();
    for (const Batch& batch : store->stream) {
      const Clock::time_point handed_in = Clock::now();
      semis::IoStats io = stats.io;
      {
        SpanRecorder::Scope span(recorder, "core.stream.apply");
        ok = ledger->Call(engine.ApplyBatch(batch), "MisEngine::ApplyBatch");
      }
      if (!ok) break;
      const Clock::time_point applied = Clock::now();
      AddIoDelta(io, stats.io, &out->apply_io);
      io = stats.io;
      const double repair_cpu0 = ProcessCpuSeconds();
      {
        SpanRecorder::Scope span(recorder, "core.stream.repair");
        ok = ledger->Call(engine.Repair(), "MisEngine::Repair");
      }
      if (!ok) break;
      const Clock::time_point repaired = Clock::now();
      out->repair_cpu_s += ProcessCpuSeconds() - repair_cpu0;
      AddIoDelta(io, stats.io, &out->repair_io);
      semis::EpochSnapshotRef published;
      {
        SpanRecorder::Scope span(recorder, "core.engine.publish");
        published = engine.Publish();
      }
      const Clock::time_point done = Clock::now();
      ok = ledger->Check(published != nullptr && published->epoch() == ++epoch,
                         "Publish returns the next epoch");
      if (!ok) break;
      out->apply_ms.push_back(SecondsBetween(handed_in, applied) * 1e3);
      out->repair_ms.push_back(SecondsBetween(applied, repaired) * 1e3);
      out->publish_call_us.push_back(SecondsBetween(repaired, done) * 1e6);
      out->publish_ms.push_back(SecondsBetween(handed_in, done) * 1e3);
    }
  }
  const Clock::time_point t1 = Clock::now();
  out->cpu_s = ProcessCpuSeconds() - cpu0;
  out->rss_mb = PeakRssMb();
  out->wall_s = SecondsBetween(t0, t1);
  reader.Stop();
  ledger->Count(reader.latencies_us().size(),
                reader.backwards() + reader.empty(), "snapshot queries");
  out->query_us = reader.latencies_us();
  out->generator_late_ms = reader.generator_late_ms();
  if (recorder != nullptr) {
    out->coverage = recorder->ChildSeconds(root_id) /
                    recorder->spans()[root_id - 1].Seconds();
  }
  if (!ok) return false;

  out->stats = stats;
  out->stats.io = semis::IoStats();
  AddIoDelta(before.io, stats.io, &out->stats.io);
  out->stats.evictions -= before.evictions;
  out->stats.repair_passes -= before.repair_passes;
  out->stats.repair_added -= before.repair_added;
  out->stats.compactions -= before.compactions;
  out->stats.shards_rewritten -= before.shards_rewritten;
  out->stats.compact_seconds -= before.compact_seconds;
  const semis::EpochSnapshotRef last = engine.Snapshot();
  out->set_size = last->set_size();

  SpanRecorder::Scope check(recorder, "check");
  {
    SpanRecorder::Scope span(recorder, "core.stream.compact");
    if (!ledger->Call(engine.Compact(/*force=*/true), "MisEngine::Compact")) {
      return false;
    }
  }
  semis::VerifyResult verdict;
  const Clock::time_point v0 = Clock::now();
  {
    SpanRecorder::Scope span(recorder, "core.verify");
    ok = ledger->Call(semis::VerifyIndependentSetShardedFile(
                          engine.manifest_path(), last->set(), &verdict,
                          &out->verify_io),
                      "VerifyIndependentSetShardedFile");
  }
  out->verify_wall_s = SecondsBetween(v0, Clock::now());
  if (!ok) return false;
  ledger->Check(verdict.independent && verdict.maximal,
                "final epoch is independent and maximal on the compacted "
                "store");
  ledger->Check(last->set().Count() == last->set_size(),
                "final epoch's size matches its set");
  ledger->Check(stats.io.io_retries == 0, "no I/O retries");
  return true;
}

// Closes the engine and deletes the store.
void TearDown(Store* store, Ledger* ledger) {
  if (store->engine != nullptr) {
    ledger->Call(store->engine->Close(), "MisEngine::Close");
  }
  store->engine.reset();
  std::filesystem::remove_all(store->dir);
}

}  // namespace

WorkloadResult RunUpdateWorkload(const RunConfig& config) {
  WorkloadResult result;
  Ledger& ledger = result.ledger;
  const std::string dir = config.work_dir + "/update-stream";
  SpanRecorder recorder;
  std::vector<SetupFacts> setups;
  std::vector<StreamRun> plain;
  std::vector<StreamRun> traced;
  std::vector<SetupFacts> traced_setups;
  const double steal0 = StealSeconds();
  const Clock::time_point start = Clock::now();
  // Untraced streams alternate between the primary and the second seed, so
  // no figure rests on one graph; a traced run compares traced and
  // untraced streams of the primary seed.
  std::map<uint64_t, uint64_t> set_size_by_seed;
  for (uint64_t rep = 0;; ++rep) {
    const bool trace_this = config.trace && rep % 2 == 1;
    const uint64_t seed = !config.trace && rep % 2 == 1
                              ? SecondSeed(config.seed)
                              : config.seed;
    if (SecondsBetween(start, Clock::now()) >= config.seconds &&
        !plain.empty() && (!config.trace || !traced.empty())) {
      break;
    }
    SpanRecorder* spans = trace_this ? &recorder : nullptr;
    if (spans != nullptr) spans->SetRunId(rep + 1);
    Store store;
    SetupFacts facts;
    bool ok = SetUp(config, seed, dir, spans, &ledger, &store, &facts);
    if (ok) {
      ReleaseFreeHeap();
      StreamRun run;
      ok = RunStream(config, &store, spans, &ledger, &run);
      if (ok) {
        const auto [first, inserted] =
            set_size_by_seed.emplace(seed, run.set_size);
        ledger.Check(inserted || first->second == run.set_size,
                     "every stream of a seed ends with the same set size");
        (trace_this ? traced : plain).push_back(std::move(run));
        (trace_this ? traced_setups : setups).push_back(facts);
      }
    }
    TearDown(&store, &ledger);
    if (!ok) return result;
  }
  result.info.emplace_back("host_steal_pct",
                           std::to_string(StealPercentSince(steal0, start)));
  // More set-up samples, so setup_s is a median of at least three.
  while (!config.trace && setups.size() < 3) {
    Store store;
    SetupFacts facts;
    const bool ok =
        SetUp(config, config.seed, dir, nullptr, &ledger, &store, &facts);
    TearDown(&store, &ledger);
    if (!ok) return result;
    setups.push_back(facts);
  }

  if (!config.trace) {
    std::vector<double> setup_s, walls, cpus, rss, publish_ms, query_us;
    for (const SetupFacts& facts : setups) setup_s.push_back(facts.seconds);
    for (const StreamRun& run : plain) {
      walls.push_back(run.wall_s);
      cpus.push_back(run.cpu_s);
      rss.push_back(run.rss_mb);
      publish_ms.insert(publish_ms.end(), run.publish_ms.begin(),
                        run.publish_ms.end());
      query_us.insert(query_us.end(), run.query_us.begin(), run.query_us.end());
    }
    AddEndToEndMetrics({{"setup_s", Median(setup_s)},
                        {"wall_s", Median(walls)},
                        {"cpu_s", Median(cpus)},
                        {"peak_rss_mb", Median(rss)},
                        {"set_size", double(plain[0].set_size)},
                        {"publish_p50_ms", Percentile(publish_ms, 50)},
                        {"publish_p90_ms", Percentile(publish_ms, 90)}},
                       &result);
    if (set_size_by_seed.count(SecondSeed(config.seed)) != 0) {
      result.info.emplace_back(
          "set_size_second_seed",
          std::to_string(set_size_by_seed[SecondSeed(config.seed)]));
    }
    result.info.emplace_back("batches", std::to_string(publish_ms.size()));
    result.info.emplace_back("wall_s_samples", JoinSamples(walls));
    return result;
  }

  // Per-layer values: times pooled or medianed over the traced streams,
  // counts from the last one (they repeat exactly for a seed).
  std::vector<double> apply_ms, repair_ms, publish_us, repair_cpu, coverage,
      traced_walls, plain_walls, sort_wall, sort_cpu, shard_wall, open_wall,
      open_cpu, verify_wall, compact_s;
  for (const StreamRun& run : traced) {
    apply_ms.insert(apply_ms.end(), run.apply_ms.begin(), run.apply_ms.end());
    repair_ms.insert(repair_ms.end(), run.repair_ms.begin(),
                     run.repair_ms.end());
    publish_us.insert(publish_us.end(), run.publish_call_us.begin(),
                      run.publish_call_us.end());
    repair_cpu.push_back(run.repair_cpu_s);
    coverage.push_back(run.coverage);
    traced_walls.push_back(run.wall_s);
    verify_wall.push_back(run.verify_wall_s);
    compact_s.push_back(run.stats.compact_seconds);
  }
  for (const StreamRun& run : plain) plain_walls.push_back(run.wall_s);
  for (const SetupFacts& facts : traced_setups) {
    sort_wall.push_back(facts.sort_wall_s);
    sort_cpu.push_back(facts.sort_cpu_s);
    shard_wall.push_back(facts.shard_wall_s);
    open_wall.push_back(facts.open_wall_s);
    open_cpu.push_back(facts.open_cpu_s);
  }
  const StreamRun& last = traced.back();
  const SetupFacts& last_setup = traced_setups.back();
  const semis::StreamingMisStats& st = last.stats;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  MetricValues values = {
      {"graph.sort.wall_s", Median(sort_wall)},
      {"graph.sort.cpu_s", Median(sort_cpu)},
      {"graph.sort.bytes_read", double(last_setup.sort_io.bytes_read)},
      {"graph.sort.bytes_written", double(last_setup.sort_io.bytes_written)},
      {"graph.sort.merge_passes", double(last_setup.sort_io.sort_passes)},
      {"graph.sort.peak_mem_mb", last_setup.sort_peak_bytes / 1048576.0},
      {"graph.shard.wall_s", Median(shard_wall)},
      {"graph.shard.bytes_written", double(last_setup.shard_io.bytes_written)},
      {"core.greedy.wall_s", Median(open_wall)},
      {"core.greedy.cpu_s", Median(open_cpu)},
      {"core.greedy.cpu_per_wall", ratio(Median(open_cpu), Median(open_wall))},
      {"core.greedy.scans", double(last_setup.greedy_io.sequential_scans)},
      {"core.greedy.bytes_read", double(last_setup.greedy_io.bytes_read)},
      {"core.greedy.records_decoded",
       double(last_setup.greedy_io.records_decoded)},
      {"core.verify.wall_s", Median(verify_wall)},
      {"core.verify.bytes_read", double(last.verify_io.bytes_read)},
      {"core.stream.apply.p50_ms", Percentile(apply_ms, 50)},
      {"core.stream.apply.bytes_written", double(last.apply_io.bytes_written)},
      {"core.stream.apply.evictions", double(st.evictions)},
      {"core.stream.repair.p50_ms", Percentile(repair_ms, 50)},
      {"core.stream.repair.p90_ms", Percentile(repair_ms, 90)},
      {"core.stream.repair.cpu_s", Median(repair_cpu)},
      {"core.stream.repair.scans", double(last.repair_io.sequential_scans)},
      {"core.stream.repair.records_decoded",
       double(last.repair_io.records_decoded)},
      {"core.stream.repair.added_per_record",
       ratio(double(st.repair_added), double(last.repair_io.records_decoded))},
      {"core.stream.compact.count", double(st.compactions)},
      {"core.stream.compact.shards_rewritten", double(st.shards_rewritten)},
      {"core.stream.compact.seconds", Median(compact_s)},
      {"core.engine.publish.p50_us", Percentile(publish_us, 50)},
      {"core.engine.snapshot.queries", double(last.query_us.size())},
      {"core.engine.snapshot.p50_us", Percentile(last.query_us, 50)},
      {"core.engine.snapshot.p90_us", Percentile(last.query_us, 90)},
      {"core.engine.snapshot.p99_us", Percentile(last.query_us, 99)},
      {"core.engine.snapshot.generator_late_ms", last.generator_late_ms},
      {"io.bytes_read", double(st.io.bytes_read)},
      {"io.bytes_written", double(st.io.bytes_written)},
      {"io.scans", double(st.io.sequential_scans)},
      {"io.files_opened", double(st.io.files_opened)},
      {"io.retries", double(st.io.io_retries)},
      {"trace.coverage", Median(coverage)},
      {"trace.overhead", ratio(Median(traced_walls), Median(plain_walls))},
  };
  AddLayerMetrics(values, &result);
  result.self_seconds = recorder.SelfSecondsByName();
  if (!config.trace_path.empty()) {
    ledger.Call(recorder.WriteChromeTrace(config.trace_path),
                "WriteChromeTrace");
  }
  return result;
}

}  // namespace perfbench
