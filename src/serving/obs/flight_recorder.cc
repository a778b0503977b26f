#include "serving/obs/flight_recorder.h"

#include <cstdio>
#include <utility>

#include "common/check.h"

namespace rago::obs {

FlightRecorder::FlightRecorder(int capacity)
    : capacity_(static_cast<size_t>(capacity)) {
  RAGO_REQUIRE(capacity >= 1, "flight recorder capacity must be positive");
}

void
FlightRecorder::Append(double time, std::string kind, std::string message,
                       double value) {
  FlightRecord record;
  record.time = time;
  record.kind = std::move(kind);
  record.message = std::move(message);
  record.value = value;
  records_.push_back(std::move(record));
  ++appended_;
  if (records_.size() > capacity_) {
    records_.pop_front();
    ++dropped_;
  }
}

void
FlightRecorder::Clear() {
  records_.clear();
  appended_ = 0;
  dropped_ = 0;
}

void
FlightRecorder::WriteJson(JsonWriter& json) const {
  json.BeginObject();
  json.Key("appended").Int(appended_);
  json.Key("capacity").Int(static_cast<int64_t>(capacity_));
  json.Key("dropped").Int(dropped_);
  json.Key("records").BeginArray();
  for (const FlightRecord& record : records_) {
    json.BeginObject();
    json.Key("kind").String(record.kind);
    json.Key("message").String(record.message);
    json.Key("time").Number(record.time);
    json.Key("value").Number(record.value);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

std::string
FlightRecorder::Json() const {
  JsonWriter json;
  WriteJson(json);
  return json.str();
}

void
FlightRecorder::DumpToFile(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  RAGO_REQUIRE(file != nullptr,
               "cannot open flight-recorder dump for write: " + path);
  const std::string body = Json() + "\n";
  const bool written =
      std::fwrite(body.data(), 1, body.size(), file) == body.size();
  // fclose flushes the buffer, so a full device often surfaces here.
  const bool closed = std::fclose(file) == 0;
  RAGO_REQUIRE(written && closed,
               "cannot write flight-recorder dump: " + path);
}

}  // namespace rago::obs
