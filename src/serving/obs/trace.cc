#include "serving/obs/trace.h"

#include <algorithm>

#include "common/check.h"
#include "common/fnv.h"

namespace rago::obs {
namespace {

constexpr double kMicrosPerSecond = 1e6;
/// Track group carrying per-request rows (matches both engines).
constexpr int kRequestPid = 1;

}  // namespace

uint64_t
HashRequestId(uint64_t seed, int64_t request_id) {
  return FnvFold(FnvFold(kFnvOffset, seed),
                 static_cast<uint64_t>(request_id));
}

void
TraceSamplingOptions::Validate() const {
  RAGO_REQUIRE(head_rate >= 0.0 && head_rate <= 1.0,
               "head_rate must lie in [0, 1]");
  RAGO_REQUIRE(tail_keep >= 0, "tail_keep must be non-negative");
}

void
TraceRecorder::SetProcessName(int pid, std::string name) {
  process_names_[pid] = std::move(name);
}

void
TraceRecorder::SetThreadName(int pid, int tid, std::string name) {
  thread_names_[{pid, tid}] = std::move(name);
}

void
TraceRecorder::SetSampling(TraceSamplingOptions options) {
  options.Validate();
  RAGO_REQUIRE(events_.empty() && pending_.empty() && tail_.empty(),
               "sampling must be configured before recording");
  sampling_ = options;
  sampling_active_ = options.head_rate < 1.0 || options.tail_keep > 0;
}

bool
TraceRecorder::HeadSampled(int64_t request_id) const {
  // Top 53 bits -> uniform double in [0, 1); compare against the rate.
  const uint64_t hash = HashRequestId(sampling_.seed, request_id);
  const double coin =
      static_cast<double>(hash >> 11) * 0x1.0p-53;
  return coin < sampling_.head_rate;
}

TraceEvent&
TraceRecorder::Append(TraceEvent event) {
  if (sampling_active_ && event.request_id >= 0) {
    std::vector<TraceEvent>& buffer = pending_[event.request_id];
    buffer.push_back(std::move(event));
    return buffer.back();
  }
  events_.push_back(std::move(event));
  return events_.back();
}

TraceEvent&
TraceRecorder::AddComplete(std::string name, std::string category, int pid,
                           int tid, double start, double duration,
                           int64_t request_id) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kComplete;
  event.name = std::move(name);
  event.category = std::move(category);
  event.pid = pid;
  event.tid = tid;
  event.start = start;
  event.duration = duration;
  event.request_id = request_id;
  return Append(std::move(event));
}

TraceEvent&
TraceRecorder::AddInstant(std::string name, std::string category, int pid,
                          int tid, double time, int64_t request_id) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kInstant;
  event.name = std::move(name);
  event.category = std::move(category);
  event.pid = pid;
  event.tid = tid;
  event.start = time;
  event.request_id = request_id;
  return Append(std::move(event));
}

TraceEvent&
TraceRecorder::AddCounter(std::string name, std::string category, int pid,
                          int tid, double time, double value) {
  TraceEvent event;
  event.phase = TraceEvent::Phase::kCounter;
  event.name = std::move(name);
  event.category = std::move(category);
  event.pid = pid;
  event.tid = tid;
  event.start = time;
  event.args.emplace_back("value", value);
  return Append(std::move(event));
}

void
TraceRecorder::Commit(std::vector<TraceEvent> events) {
  for (TraceEvent& event : events) {
    events_.push_back(std::move(event));
  }
}

bool
TraceRecorder::TailWorse(const TailEntry& a, const TailEntry& b) {
  if (a.slo_violation != b.slo_violation) {
    return a.slo_violation;  // Violators outrank merely-slow requests.
  }
  if (a.score != b.score) {
    return a.score > b.score;
  }
  return a.request_id < b.request_id;
}

void
TraceRecorder::FinalizeRequest(int64_t request_id, double score,
                               bool slo_violation) {
  if (!sampling_active_) {
    return;
  }
  std::vector<TraceEvent> events;
  auto it = pending_.find(request_id);
  if (it != pending_.end()) {
    events = std::move(it->second);
    pending_.erase(it);
  }
  ++finalized_requests_;
  if (HeadSampled(request_id)) {
    Commit(std::move(events));
    ++sampled_requests_;
    return;
  }
  if (sampling_.tail_keep > 0) {
    TailEntry entry;
    entry.request_id = request_id;
    entry.score = score;
    entry.slo_violation = slo_violation;
    entry.events = std::move(events);
    // Insert in worst-first order; evict the best-ranked entry once
    // over capacity. K is small, so linear insertion is fine.
    auto pos = std::upper_bound(
        tail_.begin(), tail_.end(), entry,
        [](const TailEntry& a, const TailEntry& b) {
          return TailWorse(a, b);
        });
    tail_.insert(pos, std::move(entry));
    if (tail_.size() > static_cast<size_t>(sampling_.tail_keep)) {
      tail_.pop_back();
      ++discarded_requests_;
    }
    return;
  }
  ++discarded_requests_;
}

void
TraceRecorder::FlushTailKeep() {
  if (!sampling_active_ || tail_.empty()) {
    return;
  }
  std::sort(tail_.begin(), tail_.end(),
            [](const TailEntry& a, const TailEntry& b) {
              return a.request_id < b.request_id;
            });
  for (TailEntry& entry : tail_) {
    Commit(std::move(entry.events));
    ++sampled_requests_;
  }
  tail_.clear();
}

std::vector<const TraceEvent*>
TraceRecorder::EventsForRequest(int64_t request_id) const {
  std::vector<const TraceEvent*> matches;
  for (const TraceEvent& event : events_) {
    if (event.request_id == request_id) {
      matches.push_back(&event);
    }
  }
  return matches;
}

void
TraceRecorder::Clear() {
  events_.clear();
  process_names_.clear();
  thread_names_.clear();
  pending_.clear();
  tail_.clear();
  finalized_requests_ = 0;
  sampled_requests_ = 0;
  discarded_requests_ = 0;
}

void
TraceRecorder::WriteChromeTrace(JsonWriter& json) const {
  json.BeginObject();
  json.Key("displayTimeUnit").String("ms");
  json.Key("traceEvents").BeginArray();
  // Metadata first (the format does not require it, but the viewers
  // name tracks more reliably when names precede events). Map order
  // keeps emission deterministic. Request rows are named here, one
  // per request with committed events, unless named explicitly.
  std::map<std::pair<int, int>, std::string> thread_names = thread_names_;
  for (const TraceEvent& event : events_) {
    const std::pair<int, int> key{event.pid, event.tid};
    if (event.pid == kRequestPid && thread_names.count(key) == 0) {
      thread_names.emplace(key, "req " + std::to_string(event.tid));
    }
  }
  for (const auto& [pid, name] : process_names_) {
    json.BeginObject();
    json.Key("ph").String("M");
    json.Key("name").String("process_name");
    json.Key("pid").Int(pid);
    json.Key("tid").Int(0);
    json.Key("args").BeginObject();
    json.Key("name").String(name);
    json.EndObject();
    json.EndObject();
  }
  for (const auto& [key, name] : thread_names) {
    json.BeginObject();
    json.Key("ph").String("M");
    json.Key("name").String("thread_name");
    json.Key("pid").Int(key.first);
    json.Key("tid").Int(key.second);
    json.Key("args").BeginObject();
    json.Key("name").String(name);
    json.EndObject();
    json.EndObject();
  }
  for (const TraceEvent& event : events_) {
    json.BeginObject();
    const bool complete = event.phase == TraceEvent::Phase::kComplete;
    const bool counter = event.phase == TraceEvent::Phase::kCounter;
    json.Key("ph").String(complete ? "X" : (counter ? "C" : "i"));
    json.Key("name").String(event.name);
    json.Key("cat").String(event.category);
    json.Key("pid").Int(event.pid);
    json.Key("tid").Int(event.tid);
    json.Key("ts").Number(event.start * kMicrosPerSecond);
    if (complete) {
      json.Key("dur").Number(event.duration * kMicrosPerSecond);
    } else if (!counter) {
      json.Key("s").String("t");  // Instant scoped to its thread row.
    }
    if (event.request_id >= 0 || !event.args.empty()) {
      json.Key("args").BeginObject();
      if (event.request_id >= 0) {
        json.Key("request").Int(event.request_id);
      }
      for (const auto& [key, value] : event.args) {
        json.Key(key).Number(value);
      }
      json.EndObject();
    }
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string
TraceRecorder::ChromeTraceJson() const {
  JsonWriter json;
  WriteChromeTrace(json);
  return json.str();
}

void
TraceRecorder::WriteRequestSummary(JsonWriter& json) const {
  // Group by request id; within a request, recorded order is causal
  // order (the serial event loop appends as things happen).
  std::map<int64_t, std::vector<const TraceEvent*>> by_request;
  for (const TraceEvent& event : events_) {
    if (event.request_id >= 0) {
      by_request[event.request_id].push_back(&event);
    }
  }
  json.BeginObject();
  json.Key("requests").BeginArray();
  for (const auto& [request_id, spans] : by_request) {
    json.BeginObject();
    json.Key("request").Int(request_id);
    json.Key("events").BeginArray();
    for (const TraceEvent* event : spans) {
      json.BeginObject();
      json.Key("name").String(event->name);
      json.Key("phase").String(
          event->phase == TraceEvent::Phase::kComplete ? "span" : "instant");
      json.Key("start").Number(event->start);
      if (event->phase == TraceEvent::Phase::kComplete) {
        json.Key("duration").Number(event->duration);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string
TraceRecorder::RequestSummaryJson() const {
  JsonWriter json;
  WriteRequestSummary(json);
  return json.str();
}

}  // namespace rago::obs
