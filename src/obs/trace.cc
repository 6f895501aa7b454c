#include "obs/trace.h"

#include <cinttypes>
#include <cstdio>

#include "obs/json.h"
#include "util/file_io.h"
#include "util/heap_bytes.h"

namespace bbsmine::obs {

const char* TraceCategoryName(TraceCategory category) {
  switch (category) {
    case kTracePhase:
      return "phase";
    case kTraceFilter:
      return "filter";
    case kTraceRefine:
      return "refine";
    case kTraceProbe:
      return "probe";
    case kTraceKernel:
      return "kernel";
    case kTraceRequest:
      return "request";
    case kTraceQueue:
      return "queue";
    case kTraceBatch:
      return "batch";
    case kTraceSegment:
      return "segment";
    default:
      return "other";
  }
}

uint32_t Tracer::TidOfCurrentThread() {
  auto [it, inserted] =
      tids_.emplace(std::this_thread::get_id(),
                    static_cast<uint32_t>(tids_.size() + 1));
  (void)inserted;
  return it->second;
}

void Tracer::AddComplete(TraceCategory category, const char* name,
                         double ts_us, double dur_us, std::string args_json) {
  std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, category, ts_us, dur_us,
                          TidOfCurrentThread(), std::move(args_json)});
}

size_t Tracer::event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

size_t Tracer::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = events_.capacity() * sizeof(Event);
  for (const Event& event : events_) bytes += StringHeapBytes(event.args_json);
  return bytes;
}

std::string Tracer::ToJsonString() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  out.reserve(events_.size() * 120 + 256);
  out += "{\n\"traceEvents\": [\n";
  char buf[160];
  for (size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    out += "{\"name\": \"";
    out += JsonEscape(e.name);
    out += "\", \"cat\": \"";
    out += TraceCategoryName(e.category);
    std::snprintf(buf, sizeof(buf),
                  "\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, "
                  "\"pid\": 1, \"tid\": %" PRIu32,
                  e.ts_us, e.dur_us, e.tid);
    out += buf;
    if (!e.args_json.empty()) {
      out += ", \"args\": {";
      out += e.args_json;
      out += "}";
    }
    out += "}";
    if (i + 1 < events_.size()) out += ",";
    out += "\n";
  }
  out += "],\n\"displayTimeUnit\": \"ms\"\n}\n";
  return out;
}

Status Tracer::WriteJson(const std::string& path) const {
  return WriteBinaryFile(path, ToJsonString());
}

void TraceSpan::AddArg(const char* key, uint64_t value) {
  if (tracer_ == nullptr) return;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "\"%s\": %" PRIu64, key, value);
  if (!args_json_.empty()) args_json_ += ", ";
  args_json_ += buf;
}

void TraceSpan::AddArg(const char* key, const char* value) {
  if (tracer_ == nullptr) return;
  if (!args_json_.empty()) args_json_ += ", ";
  args_json_ += '"';
  args_json_ += key;
  args_json_ += "\": \"";
  args_json_ += JsonEscape(value);
  args_json_ += '"';
}

}  // namespace bbsmine::obs
