// solve-seq and solve-par: SADJ on disk -> verified independent set.
//
// Untraced: MisEngine::Open with verify, the entry point `semis_cli solve`
// uses. Traced: the same stages called one by one through their public
// functions, exactly as MisEngine::OpenMonolithic wires them, each inside
// a span. The replay must produce the engine's set bit for bit, and its
// per-layer I/O must add up to SolveResult::io.
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/greedy.h"
#include "core/parallel_greedy.h"
#include "core/parallel_swap.h"
#include "core/two_k_swap.h"
#include "core/verify.h"
#include "graph/adjacency_file.h"
#include "graph/degree_sort.h"
#include "graph/sharded_adjacency_file.h"
#include "io/scratch.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

// Shards solve-par splits the sorted file into.
constexpr uint32_t kSolveParShards = 16;
// Snapshot queries timed after each solve.
constexpr int kSolveQueries = 10000;

uint64_t SolveVertices(Scale scale) {
  return scale == Scale::kFull ? 2'000'000 : 10'000;
}

semis::MisEngineOptions EngineOptions(bool parallel) {
  semis::MisEngineOptions options;
  options.swap = semis::SwapMode::kTwoK;
  options.verify = true;
  options.pipeline.num_shards = parallel ? kSolveParShards : 1;
  options.pipeline.num_threads = parallel ? kSolveParThreads : 1;
  return options;
}

// One untraced MisEngine::Open.
struct EngineSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double rss_mb = 0.0;
  double publish_ms = 0.0;
};

// One layer call of a traced replay.
struct LayerCall {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  semis::IoStats io;
};

// One traced replay of the solve pipeline.
struct Replay {
  std::map<std::string, LayerCall> layers;
  semis::AlgoResult greedy;
  semis::AlgoResult swap;
  size_t sort_peak_bytes = 0;
  double wall_s = 0.0;
  double coverage = 0.0;
};

// Runs `fn` (returning a Status) inside span `name` and books its wall
// and CPU time on `call`.
template <typename Fn>
bool TracedCall(SpanRecorder* recorder, Ledger* ledger,
                const std::string& name, LayerCall* call, Fn&& fn) {
  semis::Status status = semis::Status::OK();
  uint32_t id = 0;
  {
    SpanRecorder::Scope span(recorder, name);
    id = span.id();
    status = fn();
  }
  const Span& span = recorder->spans()[id - 1];
  call->wall_s += span.Seconds();
  call->cpu_s += span.cpu_s;
  return ledger->Call(status, name);
}

// The stages of MisEngine::OpenMonolithic for SwapMode::kTwoK, one span
// per layer call. Intermediates go to a private scratch directory.
bool ReplaySolve(const std::string& input, bool parallel,
                 SpanRecorder* recorder, Ledger* ledger, Replay* out) {
  const semis::MisEngineOptions options = EngineOptions(parallel);
  semis::ScratchDir scratch;
  if (!ledger->Call(semis::ScratchDir::Create("perfbench-replay", &scratch),
                    "ScratchDir::Create")) {
    return false;
  }
  const std::string sorted = scratch.path() + "/sorted.sadj";
  const std::string manifest = scratch.path() + "/sharded.sadjs";
  std::vector<semis::VState> states;
  semis::VerifyResult verdict;
  semis::MemoryTracker sort_memory;
  std::string work = input;
  bool ok = true;
  uint32_t root_id = 0;
  {
    SpanRecorder::Scope root(recorder, "solve");
    bool input_sorted = false;
    LayerCall* probe_call = &out->layers["graph.probe"];
    ok = TracedCall(recorder, ledger, "graph.probe", probe_call, [&] {
      semis::AdjacencyFileScanner probe(&probe_call->io);
      SEMIS_RETURN_IF_ERROR(probe.Open(input));
      input_sorted = probe.header().IsDegreeSorted();
      return probe.Close();
    });
    if (ok && !input_sorted) {
      LayerCall* call = &out->layers["graph.sort"];
      semis::DegreeSortOptions sort_options;
      sort_options.memory_budget_bytes = options.sort_memory_budget_bytes;
      sort_options.fan_in = options.sort_fan_in;
      sort_options.stats = &call->io;
      sort_options.memory = &sort_memory;
      work = sorted;
      ok = TracedCall(recorder, ledger, "graph.sort", call, [&] {
        return semis::BuildDegreeSortedAdjacencyFile(input, sorted,
                                                     sort_options);
      });
    }
    if (ok && parallel) {
      LayerCall* call = &out->layers["graph.shard"];
      ok = TracedCall(recorder, ledger, "graph.shard", call, [&] {
        return semis::ShardAdjacencyFile(work, manifest,
                                         options.pipeline.num_shards,
                                         &call->io);
      });
    }
    if (ok) {
      ok = TracedCall(recorder, ledger, "core.greedy",
                      &out->layers["core.greedy"], [&] {
                        if (!parallel) {
                          return semis::RunGreedy(work, semis::GreedyOptions(),
                                                  &out->greedy);
                        }
                        semis::ParallelGreedyOptions greedy_options;
                        greedy_options.pipeline = options.pipeline;
                        return semis::RunParallelGreedyWithStates(
                            manifest, greedy_options, &out->greedy, &states);
                      });
    }
    if (ok) {
      ok = TracedCall(recorder, ledger, "core.swap", &out->layers["core.swap"],
                      [&] {
                        if (!parallel) {
                          return semis::RunTwoKSwap(work, out->greedy.in_set,
                                                    semis::TwoKSwapOptions(),
                                                    &out->swap);
                        }
                        semis::ParallelSwapOptions swap_options;
                        swap_options.num_threads = options.pipeline.num_threads;
                        swap_options.enable_two_k = true;
                        return semis::RunParallelSwap(manifest, states,
                                                      swap_options, &out->swap);
                      });
    }
    if (ok) {
      LayerCall* call = &out->layers["core.verify"];
      ok = TracedCall(recorder, ledger, "core.verify", call, [&] {
        return parallel ? semis::VerifyIndependentSetShardedFile(
                              manifest, out->swap.in_set, &verdict, &call->io)
                        : semis::VerifyIndependentSetFile(
                              work, out->swap.in_set, &verdict, &call->io);
      });
    }
    root_id = root.id();
  }
  out->wall_s = recorder->spans()[root_id - 1].Seconds();
  out->coverage = recorder->ChildSeconds(root_id) / out->wall_s;
  out->layers["core.greedy"].io = out->greedy.io;
  out->layers["core.swap"].io = out->swap.io;
  out->sort_peak_bytes = sort_memory.PeakBytes();
  if (ok) {
    ok = ledger->Check(verdict.independent && verdict.maximal,
                       "replayed set is independent and maximal");
  }
  ledger->Call(scratch.Remove(), "ScratchDir::Remove");
  return ok;
}

// The I/O MisEngine charges to SolveResult::io: every replayed layer but
// the verify scan, which the engine does not count.
semis::IoStats EngineChargedIo(const Replay& replay) {
  semis::IoStats io;
  for (const auto& [name, call] : replay.layers) {
    if (name != "core.verify") io.MergeFrom(call.io);
  }
  return io;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uint64_t SwapCount(const semis::AlgoResult& swap, bool conflicts) {
  uint64_t total = 0;
  for (const semis::RoundStats& round : swap.round_stats) {
    total += conflicts ? round.conflicts
                       : round.one_k_swaps + round.two_k_swaps;
  }
  return total;
}

}  // namespace

WorkloadResult RunSolveWorkload(const RunConfig& config) {
  WorkloadResult result;
  Ledger& ledger = result.ledger;
  const bool parallel = config.workload == "solve-par";
  const uint64_t n = SolveVertices(config.scale);
  const std::string dir = config.work_dir + "/" + config.workload;
  std::filesystem::create_directories(dir);
  const std::string input = dir + "/input.sadj";
  const std::string second = dir + "/second.sadj";

  // Set-up, three times: the primary graph, the second seed's graph, and
  // the primary graph again (which must come out the same size).
  std::vector<double> setup_s;
  std::uintmax_t input_bytes = 0;
  const std::pair<uint64_t, std::string> setups[] = {
      {config.seed, input}, {SecondSeed(config.seed), second},
      {config.seed, input}};
  for (const auto& [seed, path] : setups) {
    const Clock::time_point t0 = Clock::now();
    if (!ledger.Call(WriteInputGraph(n, seed, path), "WriteInputGraph")) {
      return result;
    }
    setup_s.push_back(SecondsBetween(t0, Clock::now()));
    if (path == input) {
      const std::uintmax_t bytes = std::filesystem::file_size(input);
      if (input_bytes != 0) {
        ledger.Check(bytes == input_bytes, "same seed gives the same input");
      }
      input_bytes = bytes;
    }
  }
  ReleaseFreeHeap();

  // Warm-up on the second seed's graph.
  const semis::MisEngineOptions options = EngineOptions(parallel);
  {
    semis::MisEngine warm(options);
    if (!ledger.Call(warm.Open(second), "MisEngine::Open(second seed)")) {
      return result;
    }
    result.info.emplace_back("set_size_second_seed",
                             std::to_string(warm.open_result().set_size));
    ledger.Call(warm.Close(), "MisEngine::Close(second seed)");
  }

  SpanRecorder recorder;
  std::vector<EngineSample> plain;
  std::vector<Replay> replays;
  semis::BitVector engine_set;
  semis::IoStats engine_io;
  uint64_t set_size = 0;
  const size_t min_plain = config.trace ? 1 : 3;
  const size_t min_traced = config.trace ? 1 : 0;
  // Queries run closed loop on the published epoch after each solve: an
  // open-loop reader beside solve-par's pool would have no core of its own.
  semis::Random rng(config.seed);
  std::vector<double> query_us;
  uint64_t hits = 0;
  const double steal0 = StealSeconds();
  const Clock::time_point start = Clock::now();
  bool ok = true;
  for (uint64_t rep = 0; ok; ++rep) {
    if (SecondsBetween(start, Clock::now()) >= config.seconds &&
        plain.size() >= min_plain && replays.size() >= min_traced) {
      break;
    }
    if (config.trace && rep % 2 == 1) {
      recorder.SetRunId(rep + 1);
      Replay replay;
      ok = ReplaySolve(input, parallel, &recorder, &ledger, &replay);
      if (ok) {
        ledger.Check(SameSet(replay.swap.in_set, engine_set),
                     "replayed set equals MisEngine's set");
        ledger.Check(SameIo(EngineChargedIo(replay), engine_io),
                     "per-layer I/O adds up to SolveResult::io");
        replays.push_back(std::move(replay));
      }
      continue;
    }
    semis::MisEngine engine(options);
    ReleaseFreeHeap();
    ResetPeakRss();
    const double cpu0 = ProcessCpuSeconds();
    const Clock::time_point t0 = Clock::now();
    const semis::Status status = engine.Open(input);
    const Clock::time_point t1 = Clock::now();
    const double cpu1 = ProcessCpuSeconds();
    const double rss = PeakRssMb();
    const semis::EpochSnapshotRef snapshot = engine.Snapshot();
    const Clock::time_point t2 = Clock::now();
    ok = ledger.Call(status, "MisEngine::Open");
    if (!ok) break;
    const semis::SolveResult& solved = engine.open_result();
    ledger.Check(snapshot != nullptr && snapshot->epoch() == 1 &&
                     snapshot->set_size() == solved.set_size,
                 "Open publishes the solved set as epoch 1");
    ledger.Check(solved.io.io_retries == 0, "no I/O retries");
    if (plain.empty()) {
      engine_set = solved.set;
      engine_io = solved.io;
      set_size = solved.set_size;
    } else {
      ledger.Check(SameSet(solved.set, engine_set),
                   "every solve returns the same set");
    }
    plain.push_back({SecondsBetween(t0, t1), cpu1 - cpu0, rss,
                     SecondsBetween(t0, t2) * 1e3});
    uint64_t wrong_epoch = 0;
    for (int i = 0; i < kSolveQueries; ++i) {
      const Clock::time_point q0 = Clock::now();
      wrong_epoch += QuerySnapshot(engine, &rng, &hits) != 1;
      query_us.push_back(SecondsBetween(q0, Clock::now()) * 1e6);
    }
    ledger.Count(kSolveQueries, wrong_epoch, "snapshot queries");
    ledger.Call(engine.Close(), "MisEngine::Close");
  }
  result.info.emplace_back("host_steal_pct",
                           std::to_string(StealPercentSince(steal0, start)));
  if (!ok || plain.empty()) return result;

  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss;
  std::vector<double> publish_ms;
  for (const EngineSample& sample : plain) {
    walls.push_back(sample.wall_s);
    cpus.push_back(sample.cpu_s);
    rss.push_back(sample.rss_mb);
    publish_ms.push_back(sample.publish_ms);
  }
  result.info.emplace_back("wall_s_samples", JoinSamples(walls));
  if (!config.trace) {
    AddEndToEndMetrics(
        {{"setup_s", Median(setup_s)},
         {"wall_s", Median(walls)},
         {"cpu_s", Median(cpus)},
         {"peak_rss_mb", Median(rss)},
         {"set_size", static_cast<double>(set_size)},
         {"publish_p50_ms", Percentile(publish_ms, 50)},
         {"publish_p90_ms", Percentile(publish_ms, 90)}},
        &result);
    return result;
  }

  // Per-layer values: medians of times over the replays, counts from the
  // last replay (they repeat exactly).
  const Replay& last = replays.back();
  std::map<std::string, std::vector<double>> wall_by_layer;
  std::map<std::string, std::vector<double>> cpu_by_layer;
  std::vector<double> replay_walls;
  std::vector<double> coverage;
  for (const Replay& replay : replays) {
    for (const auto& [name, call] : replay.layers) {
      wall_by_layer[name].push_back(call.wall_s);
      cpu_by_layer[name].push_back(call.cpu_s);
    }
    replay_walls.push_back(replay.wall_s);
    coverage.push_back(replay.coverage);
  }
  const auto wall = [&](const std::string& layer) {
    return Median(wall_by_layer[layer]);
  };
  const auto cpu = [&](const std::string& layer) {
    return Median(cpu_by_layer[layer]);
  };
  const auto io = [&](const std::string& layer) -> const semis::IoStats& {
    return last.layers.at(layer).io;
  };
  semis::IoStats total_io;
  for (const auto& [name, call] : last.layers) total_io.MergeFrom(call.io);
  ledger.Check(total_io.io_retries == 0, "no I/O retries in the replay");

  MetricValues values = {
      {"graph.sort.wall_s", wall("graph.sort")},
      {"graph.sort.cpu_s", cpu("graph.sort")},
      {"graph.sort.bytes_read", double(io("graph.sort").bytes_read)},
      {"graph.sort.bytes_written", double(io("graph.sort").bytes_written)},
      {"graph.sort.merge_passes", double(io("graph.sort").sort_passes)},
      {"graph.sort.peak_mem_mb", last.sort_peak_bytes / 1048576.0},
      {"core.greedy.wall_s", wall("core.greedy")},
      {"core.greedy.cpu_s", cpu("core.greedy")},
      {"core.greedy.cpu_per_wall",
       Ratio(cpu("core.greedy"), wall("core.greedy"))},
      {"core.greedy.scans", double(io("core.greedy").sequential_scans)},
      {"core.greedy.bytes_read", double(io("core.greedy").bytes_read)},
      {"core.greedy.records_decoded",
       double(io("core.greedy").records_decoded)},
      {"core.swap.wall_s", wall("core.swap")},
      {"core.swap.cpu_s", cpu("core.swap")},
      {"core.swap.cpu_per_wall", Ratio(cpu("core.swap"), wall("core.swap"))},
      {"core.swap.rounds", double(last.swap.rounds)},
      {"core.swap.scans", double(io("core.swap").sequential_scans)},
      {"core.swap.bytes_read", double(io("core.swap").bytes_read)},
      {"core.swap.swaps", double(SwapCount(last.swap, false))},
      {"core.swap.conflicts", double(SwapCount(last.swap, true))},
      {"core.swap.gain_per_scan",
       Ratio(double(last.swap.set_size) - double(last.greedy.set_size),
             double(io("core.swap").sequential_scans))},
      {"core.verify.wall_s", wall("core.verify")},
      {"core.verify.bytes_read", double(io("core.verify").bytes_read)},
      {"core.engine.snapshot.queries", double(query_us.size())},
      {"core.engine.snapshot.p50_us", Percentile(query_us, 50)},
      {"core.engine.snapshot.p90_us", Percentile(query_us, 90)},
      {"core.engine.snapshot.p99_us", Percentile(query_us, 99)},
      {"io.bytes_read", double(total_io.bytes_read)},
      {"io.bytes_written", double(total_io.bytes_written)},
      {"io.scans", double(total_io.sequential_scans)},
      {"io.files_opened", double(total_io.files_opened)},
      {"io.retries", double(total_io.io_retries)},
      {"trace.coverage", Median(coverage)},
      {"trace.overhead", Ratio(Median(replay_walls), Median(walls))},
  };
  if (parallel) {
    values["graph.shard.wall_s"] = wall("graph.shard");
    values["graph.shard.bytes_written"] =
        double(io("graph.shard").bytes_written);
  }
  AddLayerMetrics(values, &result);
  result.self_seconds = recorder.SelfSecondsByName();
  if (!config.trace_path.empty()) {
    ledger.Call(recorder.WriteChromeTrace(config.trace_path),
                "WriteChromeTrace");
  }
  return result;
}

}  // namespace perfbench
