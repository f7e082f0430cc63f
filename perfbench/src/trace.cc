#include "trace.h"

#include <cstdio>
#include <memory>

namespace perfbench {

uint32_t SpanRecorder::Begin(const std::string& name) {
  Span span;
  span.name = name;
  span.id = static_cast<uint32_t>(spans_.size()) + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.run_id = run_id_;
  start_cpu_.push_back(ProcessCpuSeconds());
  span.start = Clock::now();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::End(uint32_t id) {
  Span& span = spans_[id - 1];
  span.end = Clock::now();
  span.cpu_s = ProcessCpuSeconds() - start_cpu_[id - 1];
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double SpanRecorder::ChildSeconds(uint32_t id) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == id) total += span.Seconds();
  }
  return total;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByName() const {
  std::vector<double> child(spans_.size() + 1, 0.0);
  for (const Span& span : spans_) child[span.parent] += span.Seconds();
  std::map<std::string, double> out;
  for (const Span& span : spans_) {
    out[span.name] += span.Seconds() - child[span.id];
  }
  return out;
}

semis::Status SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::unique_ptr<FILE, int (*)(FILE*)> file(std::fopen(path.c_str(), "w"),
                                             &std::fclose);
  if (file == nullptr) {
    return semis::Status::IOError("cannot write trace file " + path);
  }
  std::fprintf(file.get(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const double ts_us = SecondsBetween(origin_, span.start) * 1e6;
    std::fprintf(
        file.get(),
        "%s\n{\"name\":%s,\"cat\":\"semis\",\"ph\":\"X\",\"pid\":1,"
        "\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{\"span_id\":%u,"
        "\"parent\":%u,\"run_id\":%llu,\"cpu_s\":%s}}",
        i == 0 ? "" : ",", JsonString(span.name).c_str(),
        JsonNumber(ts_us).c_str(), JsonNumber(span.Seconds() * 1e6).c_str(),
        span.id, span.parent, static_cast<unsigned long long>(span.run_id),
        JsonNumber(span.cpu_s).c_str());
  }
  std::fprintf(file.get(), "\n]}\n");
  if (std::ferror(file.get()) != 0) {
    return semis::Status::IOError("error writing trace file " + path);
  }
  return semis::Status::OK();
}

}  // namespace perfbench
