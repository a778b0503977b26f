#include "spans.h"

#include <cstdio>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(std::string layer, std::string name, int parent) {
  if (!enabled_) {
    return -1;
  }
  const double now = Now();
  spans_.push_back(Span{std::move(layer), std::move(name), parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

double SpanRecorder::End(int id) {
  if (!enabled_ || id < 0) {
    return 0.0;
  }
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = Now();
  return span.end - span.start;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", span.name.c_str(), span.layer.c_str(),
                 span.start * 1e6, (span.end - span.start) * 1e6, i,
                 span.parent);
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace perfbench
