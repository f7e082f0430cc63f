// Span recorder of the traced run. The benchmark wraps each call into a
// layer's public function in a span (name, start, end, parent, run id),
// keeps the spans in memory and writes them at exit as Chrome trace-event
// JSON, which Perfetto (ui.perfetto.dev) and chrome://tracing open.
//
// Spans are recorded from one thread, the one driving the layer calls.
// They nest strictly: a span's parent is the innermost span still open
// when it begins, so a layer's self time is its duration minus that of
// its direct children.
#ifndef SEMIS_PERFBENCH_TRACE_H_
#define SEMIS_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics.h"
#include "util/status.h"

namespace perfbench {

struct Span {
  std::string name;
  uint32_t id = 0;
  /// Index + 1 of the enclosing span; 0 for a root.
  uint32_t parent = 0;
  /// Shared by every span of one workload repetition.
  uint64_t run_id = 0;
  Clock::time_point start;
  Clock::time_point end;
  /// Process CPU seconds (all threads) between start and end.
  double cpu_s = 0.0;

  double Seconds() const { return SecondsBetween(start, end); }
};

class SpanRecorder {
 public:
  SpanRecorder() : origin_(Clock::now()) {}

  /// Spans begun from now on carry `run_id`.
  void SetRunId(uint64_t run_id) { run_id_ = run_id; }

  /// Opens a span nested in the innermost open one; returns its id.
  uint32_t Begin(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void End(uint32_t id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations of span `id`'s direct children.
  double ChildSeconds(uint32_t id) const;

  /// Self seconds summed per span name.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Writes every span as a Chrome trace-event JSON file.
  semis::Status WriteChromeTrace(const std::string& path) const;

  /// RAII span: Begin on construction, End on destruction. A null
  /// recorder makes it a no-op, so untraced runs share the traced code.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name)
        : recorder_(recorder),
          id_(recorder == nullptr ? 0 : recorder->Begin(name)) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    uint32_t id() const { return id_; }

   private:
    SpanRecorder* recorder_;
    uint32_t id_;
  };

 private:
  Clock::time_point origin_;
  uint64_t run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<double> start_cpu_;
  std::vector<uint32_t> open_;
};

}  // namespace perfbench

#endif  // SEMIS_PERFBENCH_TRACE_H_
