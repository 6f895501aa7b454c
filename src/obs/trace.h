// Phase/span tracing for the mining engine, in Chrome trace-event format.
//
// A Tracer collects "complete" events (name, category, start timestamp,
// duration, thread id, optional args) and writes them as a Chrome
// trace-event JSON document — load the file at chrome://tracing or
// https://ui.perfetto.dev to see where wall time goes inside the parallel
// engine: which root subtrees dominate the filter walk, how refinement
// batches interleave, how probe fetches cluster per worker.
//
// Tracing is strictly passive: spans read the clock and append to a buffer;
// they never touch mining state, so the mined patterns and every counter
// are bit-identical with tracing on or off (pinned by miner tests).
//
// Cost model: a null Tracer* costs one branch per would-be span. An enabled
// tracer costs one steady_clock read at span open and a mutex-guarded
// append at span close. The per-kernel-call category (kTraceKernel) is too
// hot for the default and must be opted into.
//
// Thread safety: AddComplete may be called from any thread; thread ids are
// registered on first use and numbered in registration order.

#ifndef BBSMINE_OBS_TRACE_H_
#define BBSMINE_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace bbsmine::obs {

/// Span categories, used both to filter recording (Tracer category mask)
/// and as the "cat" field of the emitted events.
enum TraceCategory : uint32_t {
  kTracePhase = 1u << 0,   // top-level phases: prepare, filter, refine
  kTraceFilter = 1u << 1,  // per-root filter-walk subtrees
  kTraceRefine = 1u << 2,  // refinement batches / postprocessing
  kTraceProbe = 1u << 3,   // per-candidate probe fetches
  kTraceKernel = 1u << 4,  // per-CountItemSet kernel calls (hot; opt-in)

  // Service (bbsmined) categories: one span per sampled request, its
  // admission-to-batch queue wait, the scheduler batch that answered it,
  // and the per-(query, segment) fan-out cells of that batch. Correlated
  // by "trace_id" / "batch" args rather than nesting, since the spans land
  // on different threads (the request's connection thread, the batch
  // leader's, pool workers).
  kTraceRequest = 1u << 5,  // whole-request spans in Server::Handle
  kTraceQueue = 1u << 6,    // scheduler admission queue wait
  kTraceBatch = 1u << 7,    // scheduler batch execution
  kTraceSegment = 1u << 8,  // per-(query, segment) count cells

  kTraceDefault = kTracePhase | kTraceFilter | kTraceRefine | kTraceProbe,
  kTraceService = kTraceRequest | kTraceQueue | kTraceBatch | kTraceSegment,
  kTraceAll = 0xffffffffu,
};

const char* TraceCategoryName(TraceCategory category);

/// Collects trace events and serializes them as Chrome trace-event JSON.
class Tracer {
 public:
  explicit Tracer(uint32_t categories = kTraceDefault)
      : categories_(categories), epoch_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled(TraceCategory category) const {
    return (categories_ & category) != 0;
  }

  /// Microseconds since tracer construction (the trace time base).
  double NowMicros() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
        .count();
  }

  /// Records one complete ("ph":"X") event on the calling thread.
  /// `args_json` is either empty or the inner text of a JSON object,
  /// e.g. "\"root\": 3, \"candidates\": 17".
  void AddComplete(TraceCategory category, const char* name, double ts_us,
                   double dur_us, std::string args_json = std::string());

  size_t event_count() const;

  /// Heap bytes of the recorded events and their argument strings.
  size_t MemoryBytes() const;

  /// The full trace document: {"traceEvents": [...], ...}.
  std::string ToJsonString() const;

  /// Writes ToJsonString() to `path`.
  Status WriteJson(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Event {
    const char* name;  // static strings only
    TraceCategory category;
    double ts_us;
    double dur_us;
    uint32_t tid;
    std::string args_json;
  };

  uint32_t TidOfCurrentThread();  // requires mu_ held

  const uint32_t categories_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Event> events_;
  std::map<std::thread::id, uint32_t> tids_;
};

/// RAII span: opens at construction, records at destruction. With a null
/// tracer or a disabled category the span is fully inert.
class TraceSpan {
 public:
  TraceSpan(Tracer* tracer, TraceCategory category, const char* name)
      : tracer_(tracer != nullptr && tracer->enabled(category) ? tracer
                                                               : nullptr),
        category_(category),
        name_(name),
        start_us_(tracer_ != nullptr ? tracer_->NowMicros() : 0) {}

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  /// Attaches a numeric argument to the event (shown in the trace viewer).
  void AddArg(const char* key, uint64_t value);
  void AddArg(const char* key, const char* value);

  bool armed() const { return tracer_ != nullptr; }

  ~TraceSpan() {
    if (tracer_ != nullptr) {
      tracer_->AddComplete(category_, name_, start_us_,
                           tracer_->NowMicros() - start_us_,
                           std::move(args_json_));
    }
  }

 private:
  Tracer* tracer_;
  TraceCategory category_;
  const char* name_;
  double start_us_;
  std::string args_json_;
};

}  // namespace bbsmine::obs

#endif  // BBSMINE_OBS_TRACE_H_
