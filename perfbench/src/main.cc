// semis_perfbench: runs one workload (or all of them) and prints every
// metric by name with its unit, then, as the last line of stdout, one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//   semis_perfbench --workload <solve-seq|solve-par|update-stream|all>
//                   --seed <n> --seconds <s> --trace <0|1>
//                   [--scale full|tiny] [--work-dir DIR] [--trace-out FILE]
//                   [--commit ID]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// from a traced replay. Exit status: 0 when every output check passed,
// 1 when one failed, 2 on bad usage or an unusable build/environment.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "metrics.h"
#include "workloads.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::WorkloadResult;

const char* const kWorkloads[] = {"solve-seq", "solve-par", "update-stream"};

int Usage(const std::string& error) {
  std::fprintf(stderr,
               "error: %s\nusage: semis_perfbench --workload "
               "<solve-seq|solve-par|update-stream|all> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale full|tiny] "
               "[--work-dir DIR] [--trace-out FILE] [--commit ID]\n",
               error.c_str());
  return 2;
}

WorkloadResult RunOne(const perfbench::RunConfig& config) {
  return config.workload == "update-stream"
             ? perfbench::RunUpdateWorkload(config)
             : perfbench::RunSolveWorkload(config);
}

void PrintMetrics(const std::string& workload, const WorkloadResult& result) {
  for (const perfbench::Metric& m : result.metrics) {
    std::printf("%-14s %-40s %16.6f %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
  }
  for (const auto& [span, seconds] : result.self_seconds) {
    std::printf("%-14s self_s %-33s %16.6f s\n", workload.c_str(),
                span.c_str(), seconds);
  }
  for (const auto& [key, value] : result.info) {
    std::printf("%-14s %-40s %16s\n", workload.c_str(), key.c_str(),
                value.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "semis_perfbench: refusing to time a build without NDEBUG; "
               "configure with -DCMAKE_BUILD_TYPE=Release\n");
  return 2;
#endif
  semis::bench::RequireDefaultIoEnv();

  std::map<std::string, std::string> args = {
      {"workload", ""},       {"seed", "1"},     {"seconds", "10"},
      {"trace", "0"},         {"scale", "full"}, {"work-dir", ".bench_work"},
      {"trace-out", ""},      {"commit", "unknown"}};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || args.count(flag.substr(2)) == 0) {
      return Usage("unknown argument '" + flag + "'");
    }
    if (i + 1 >= argc) return Usage(flag + " needs a value");
    args[flag.substr(2)] = argv[++i];
  }

  perfbench::RunConfig config;
  std::vector<std::string> workloads;
  if (args["workload"] == "all") {
    workloads.assign(std::begin(kWorkloads), std::end(kWorkloads));
  } else {
    for (const char* name : kWorkloads) {
      if (args["workload"] == name) workloads.push_back(name);
    }
  }
  if (workloads.empty()) {
    return Usage("unknown workload '" + args["workload"] + "'");
  }
  char* end = nullptr;
  config.seed = std::strtoull(args["seed"].c_str(), &end, 10);
  if (args["seed"].empty() || *end != '\0') return Usage("bad --seed");
  config.seconds = std::strtod(args["seconds"].c_str(), &end);
  if (*end != '\0' || !(config.seconds > 0)) return Usage("bad --seconds");
  if (args["trace"] != "0" && args["trace"] != "1") {
    return Usage("--trace must be 0 or 1");
  }
  config.trace = args["trace"] == "1";
  if (args["scale"] != "full" && args["scale"] != "tiny") {
    return Usage("--scale must be full or tiny");
  }
  config.scale = args["scale"] == "tiny" ? perfbench::Scale::kTiny
                                         : perfbench::Scale::kFull;
  config.work_dir = std::filesystem::absolute(args["work-dir"]).string();

  // Every scratch file of the library goes under the work directory.
  const std::string tmp = config.work_dir + "/tmp";
  std::filesystem::create_directories(tmp);
  setenv("TMPDIR", tmp.c_str(), 1);

  std::string threads = "{";
  for (const std::string& w : workloads) {
    threads += (threads.size() > 1 ? "," : "") + JsonString(w) + ":" +
               std::to_string(perfbench::ThreadBudget(w));
  }
  threads += "}";
  std::printf("perfbench-info {\"commit\":%s,\"nproc\":%u,\"seed\":%llu,"
              "\"seconds\":%s,\"trace\":%d,\"scale\":%s,\"threads\":%s}\n",
              JsonString(args["commit"]).c_str(),
              std::thread::hardware_concurrency(),
              static_cast<unsigned long long>(config.seed),
              JsonNumber(config.seconds).c_str(), config.trace ? 1 : 0,
              JsonString(args["scale"]).c_str(), threads.c_str());

  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<perfbench::Metric> metrics;
  std::map<std::string, double> wall_s;
  for (const std::string& workload : workloads) {
    config.workload = workload;
    config.trace_path.clear();
    if (config.trace) {
      config.trace_path = args["trace-out"];
      if (config.trace_path.empty() || workloads.size() > 1) {
        std::filesystem::create_directories(config.work_dir + "/traces");
        config.trace_path = config.work_dir + "/traces/" + workload + "-" +
                            std::to_string(config.seed) + ".json";
      }
    }
    std::fflush(stdout);
    WorkloadResult result = RunOne(config);
    std::filesystem::remove_all(config.work_dir + "/" + workload);
    PrintMetrics(workload, result);
    if (config.trace) {
      std::printf("%-14s %-40s %s\n", workload.c_str(), "trace_file",
                  config.trace_path.c_str());
    }
    // A workload stops early only after a failed call, so an empty metric
    // list always comes with failed > 0.
    correct = correct && result.ledger.failed() == 0 && !result.metrics.empty();
    attempted += result.ledger.attempted();
    failed += result.ledger.failed();
    for (perfbench::Metric& m : result.metrics) {
      if (m.name == "wall_s") wall_s[workload] = m.value;
      if (workloads.size() > 1) m.name = workload + "." + m.name;
      metrics.push_back(std::move(m));
    }
  }
  std::filesystem::remove_all(tmp);
  if (wall_s.count("solve-seq") != 0 && wall_s.count("solve-par") != 0 &&
      wall_s["solve-par"] > 0) {
    std::printf("derived: solve-seq.wall_s / solve-par.wall_s = %.4f\n",
                wall_s["solve-seq"] / wall_s["solve-par"]);
  }

  std::string line = "{\"correct\":";
  line += correct ? "true" : "false";
  line += ",\"attempted\":" + std::to_string(attempted);
  line += ",\"failed\":" + std::to_string(failed);
  line += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "" : ",") + JsonString(metrics[i].name) +
            ":{\"value\":" + JsonNumber(metrics[i].value) +
            ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}
