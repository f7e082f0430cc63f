// Process probes, order statistics and the result ledger shared by the
// benchmark's workloads.
#ifndef SEMIS_PERFBENCH_METRICS_H_
#define SEMIS_PERFBENCH_METRICS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/io_stats.h"
#include "util/bit_vector.h"
#include "util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// User + system CPU seconds of every thread of the process except those
/// excluded below (the snapshot readers: a polling reader would add a
/// core's worth of CPU to every figure).
double ProcessCpuSeconds();

/// Excludes the calling thread's CPU time from ProcessCpuSeconds() from
/// now on; EndExcludedThread() must be the thread's last call.
void BeginExcludedThread();
void EndExcludedThread();

/// CPU seconds the hypervisor took from this machine's CPUs, summed over
/// them (the "steal" column of /proc/stat; 0 when unreadable).
double StealSeconds();

/// Percent of the machine's CPU time the hypervisor took since `start`,
/// when StealSeconds() read `steal_at_start`.
double StealPercentSince(double steal_at_start, Clock::time_point start);

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS by writing
/// "5" to /proc/self/clear_refs. False when the kernel refuses.
bool ResetPeakRss();

/// VmHWM of this process in MiB (0 when /proc is unreadable).
double PeakRssMb();

/// Hands freed heap pages back to the kernel so set-up allocations do not
/// inflate the resident baseline of the timed interval.
void ReleaseFreeHeap();

/// Percentile `p` in [0, 100] of `values`, interpolated linearly between
/// the closest ranks (0 when empty). With a handful of repetitions a
/// nearest-rank p90 would be the slowest one alone.
double Percentile(std::vector<double> values, double p);

/// Percentile(values, 50).
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// Bit-for-bit equality of two membership vectors.
bool SameSet(const semis::BitVector& a, const semis::BitVector& b);

/// True when every traffic counter of `a` equals that of `b`. The block
/// ring's high-water marks depend on thread timing and are not compared.
bool SameIo(const semis::IoStats& a, const semis::IoStats& b);

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Every operation the benchmark attempts, and the failed ones. A failed
/// layer call, output check or health check all count as failed.
class Ledger {
 public:
  /// Counts one layer call; returns whether it succeeded.
  bool Call(const semis::Status& status, const std::string& what);
  /// Counts one output check; returns `ok`.
  bool Check(bool ok, const std::string& what);
  /// Counts `attempted` operations of which `failed` failed.
  void Count(uint64_t attempted, uint64_t failed, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// Result of one workload run.
struct WorkloadResult {
  Ledger ledger;
  std::vector<Metric> metrics;
  /// Facts printed beside the result (thread budget, second-seed size).
  std::vector<std::pair<std::string, std::string>> info;
  /// Traced runs: self seconds per span name, summed over the replays.
  std::map<std::string, double> self_seconds;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// `values` as a comma-separated list with millisecond resolution.
std::string JoinSamples(const std::vector<double>& values);

/// `value` as a JSON number with every significant digit.
std::string JsonNumber(double value);

/// `text` as a quoted JSON string.
std::string JsonString(const std::string& text);

}  // namespace perfbench

#endif  // SEMIS_PERFBENCH_METRICS_H_
