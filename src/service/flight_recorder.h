// The flight recorder: a bounded in-memory history of recent requests,
// kept per connection, for post-mortem "what was in flight" questions.
//
// Metrics aggregate and traces sample; neither answers "show me the last
// few requests this connection served right before the crash". The flight
// recorder does: every handled request appends one fixed-size event to a
// ring owned by its connection, and the rings are dumped as one JSON
// artifact on SIGTERM, on the DUMP verb, and from the fault-injection
// crash path (util/fault_injector.h crash hook) — the reconstruction the
// crash-torture script previously did by hand from logs.
//
// Concurrency: each ring has exactly ONE writer (the owning connection
// thread); readers (DUMP, the shutdown/crash dump) may run concurrently
// with writers, so every event slot is a seqlock over relaxed atomics —
// the writer bumps the slot's sequence to odd, stores the fields, then
// publishes the even sequence with release order; a reader that observes
// an odd or changed sequence skips the torn slot. No mutex is ever taken
// on the request path: recording is a dozen relaxed atomic stores.
//
// Rings outlive their connections (a crashed daemon mostly wants events
// from connections that already closed); the recorder retains up to
// `max_rings` rings and recycles the oldest *released* ring — resetting
// its history — only when that bound is hit.

#ifndef BBSMINE_SERVICE_FLIGHT_RECORDER_H_
#define BBSMINE_SERVICE_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/json.h"
#include "service/verbs.h"

namespace bbsmine::service {

/// One request's footprint in the ring. Plain-value view used on both
/// sides of the seqlock (the writer fills one, the reader extracts one).
struct FlightEvent {
  static constexpr size_t kTraceIdBytes = 24;  // truncating is fine

  uint64_t seq = 0;           ///< per-ring arrival number (0-based)
  uint64_t start_rel_us = 0;  ///< request start, µs since service start
  uint64_t latency_us = 0;
  uint64_t queue_wait_us = 0;  ///< COUNT admission wait (0 otherwise)
  uint64_t epoch = 0;          ///< snapshot epoch the answer saw (if any)
  uint32_t batch_size = 0;     ///< COUNT batch fusion width (0 otherwise)
  Verb verb = Verb::kUnknown;
  bool ok = false;
  char trace_id[kTraceIdBytes] = {};  ///< NUL-terminated, maybe truncated
};

/// Fixed-capacity single-writer ring of FlightEvents.
class FlightRing {
 public:
  explicit FlightRing(size_t capacity);

  FlightRing(const FlightRing&) = delete;
  FlightRing& operator=(const FlightRing&) = delete;

  /// Appends one event. Must only be called by the ring's single owner
  /// thread. Lock-free: relaxed stores bracketed by the slot seqlock.
  void Record(const FlightEvent& event);

  /// Copies out the retained events, oldest first, skipping slots torn by
  /// a concurrent Record. Safe from any thread.
  std::vector<FlightEvent> Read() const;

  /// Events ever recorded (not retained).
  uint64_t recorded() const { return head_.load(std::memory_order_acquire); }

  size_t capacity() const { return slots_.size(); }

  /// Heap bytes of this ring (the object and its slots).
  size_t MemoryBytes() const {
    return sizeof(*this) + slots_.capacity() * sizeof(Slot);
  }

  /// Forgets all history (recycling only; must not race the writer).
  void Reset();

 private:
  struct Slot {
    std::atomic<uint64_t> lock{0};  // seqlock: odd while being written
    std::atomic<uint64_t> seq{0};
    std::atomic<uint64_t> start_rel_us{0};
    std::atomic<uint64_t> latency_us{0};
    std::atomic<uint64_t> queue_wait_us{0};
    std::atomic<uint64_t> epoch{0};
    std::atomic<uint32_t> batch_size{0};
    std::atomic<uint8_t> verb{0};
    std::atomic<uint8_t> ok{0};
    std::atomic<char> trace_id[FlightEvent::kTraceIdBytes] = {};
  };

  std::vector<Slot> slots_;
  std::atomic<uint64_t> head_{0};  // events ever recorded
};

/// Owns the per-connection rings and renders the dump artifact.
class FlightRecorder {
 public:
  /// `ring_capacity` events are retained per connection; at most
  /// `max_rings` rings are kept before the oldest released one is
  /// recycled.
  explicit FlightRecorder(size_t ring_capacity, size_t max_rings = 256);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Hands out a ring for a new connection. The recorder keeps ownership;
  /// the ring stays valid (and dumpable) after release.
  FlightRing* AcquireRing(uint64_t connection_id);

  /// Marks the ring recyclable. The events stay dumpable until the ring
  /// is recycled for a newer connection under ring pressure.
  void ReleaseRing(FlightRing* ring);

  /// The dump artifact: every ring's retained events, oldest connection
  /// first. `now_rel_us` stamps the dump in service-relative time.
  obs::JsonValue DumpJson(uint64_t now_rel_us) const;

  /// Best-effort dump for the fault-injection crash path: bounded lock
  /// wait, then gives up and reports an empty dump rather than deadlock
  /// against a thread that died holding the registry lock.
  obs::JsonValue DumpJsonForCrash(uint64_t now_rel_us) const;

  size_t ring_capacity() const { return ring_capacity_; }

  /// Heap bytes of every ring held, active or released.
  size_t MemoryBytes() const;

 private:
  struct Holder {
    std::unique_ptr<FlightRing> ring;
    uint64_t connection_id = 0;
    uint64_t acquired_order = 0;
    bool active = false;
  };

  obs::JsonValue DumpLocked(uint64_t now_rel_us) const;

  size_t ring_capacity_;
  size_t max_rings_;
  mutable std::mutex mu_;
  std::vector<Holder> holders_;
  uint64_t next_order_ = 0;
};

}  // namespace bbsmine::service

#endif  // BBSMINE_SERVICE_FLIGHT_RECORDER_H_
