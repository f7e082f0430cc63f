#include "metrics.h"

#include <malloc.h>
#include <pthread.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

clockid_t CallingThreadClock() {
  clockid_t clock = CLOCK_THREAD_CPUTIME_ID;
  pthread_getcpuclockid(pthread_self(), &clock);
  return clock;
}

std::mutex excluded_mu;
std::vector<clockid_t> excluded_live;  // guarded by excluded_mu
double excluded_done_s = 0.0;          // guarded by excluded_mu

}  // namespace

double ProcessCpuSeconds() {
  std::lock_guard<std::mutex> lock(excluded_mu);
  double excluded = excluded_done_s;
  for (clockid_t clock : excluded_live) excluded += ClockSeconds(clock);
  return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID) - excluded;
}

void BeginExcludedThread() {
  const clockid_t clock = CallingThreadClock();
  std::lock_guard<std::mutex> lock(excluded_mu);
  excluded_live.push_back(clock);
}

void EndExcludedThread() {
  const clockid_t clock = CallingThreadClock();
  std::lock_guard<std::mutex> lock(excluded_mu);
  excluded_done_s += ClockSeconds(clock);
  excluded_live.erase(
      std::find(excluded_live.begin(), excluded_live.end(), clock));
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& field : fields) in >> field;
  if (!in || cpu != "cpu") return 0.0;
  return fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StealPercentSince(double steal_at_start, Clock::time_point start) {
  const double cpu_seconds = SecondsBetween(start, Clock::now()) *
                             std::thread::hardware_concurrency();
  return 100.0 * (StealSeconds() - steal_at_start) / cpu_seconds;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ReleaseFreeHeap() { malloc_trim(0); }

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t below = static_cast<size_t>(rank);
  if (below + 1 >= values.size()) return values.back();
  return values[below] + (rank - below) * (values[below + 1] - values[below]);
}

bool SameSet(const semis::BitVector& a, const semis::BitVector& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a.Test(i) != b.Test(i)) return false;
  }
  return true;
}

bool SameIo(const semis::IoStats& a, const semis::IoStats& b) {
  return a.bytes_read == b.bytes_read && a.bytes_written == b.bytes_written &&
         a.read_calls == b.read_calls && a.write_calls == b.write_calls &&
         a.files_opened == b.files_opened && a.io_retries == b.io_retries &&
         a.sequential_scans == b.sequential_scans &&
         a.sort_passes == b.sort_passes &&
         a.records_decoded == b.records_decoded &&
         a.blocks_decoded == b.blocks_decoded;
}

bool Ledger::Call(const semis::Status& status, const std::string& what) {
  ++attempted_;
  if (status.ok()) return true;
  ++failed_;
  std::fprintf(stderr, "perfbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  return false;
}

bool Ledger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return true;
  ++failed_;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  return false;
}

void Ledger::Count(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "perfbench: %llu of %llu %s failed\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
  }
}

std::string JoinSamples(const std::vector<double>& values) {
  std::string out;
  char buf[32];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : ",", v);
    out += buf;
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
