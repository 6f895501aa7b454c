#include "service/replication.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "service/wire.h"
#include "util/fault_injector.h"
#include "util/socket.h"

namespace bbsmine::service {

namespace {

/// A non-ok frame's error message, for log lines.
std::string FrameErrorMessage(const obs::JsonValue& frame) {
  if (frame.kind() == obs::JsonValue::Kind::kObject && frame.Has("error") &&
      frame.at("error").kind() == obs::JsonValue::Kind::kObject &&
      frame.at("error").Has("message")) {
    return frame.at("error").at("message").AsString();
  }
  return "unspecified error";
}

bool IsUint(const obs::JsonValue& doc, const std::string& key) {
  return doc.kind() == obs::JsonValue::Kind::kObject && doc.Has(key) &&
         doc.at(key).is_number();
}

}  // namespace

std::string HexEncode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 15]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("hex string has odd length");
  }
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    int hi = nibble(hex[i]);
    int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex digit in hex string");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

ReplicationSource::ReplicationSource(DurabilityManager* durability,
                                     std::function<uint64_t()> applied_txns,
                                     const ReplicationSourceOptions& options)
    : durability_(durability),
      applied_txns_(std::move(applied_txns)),
      options_(options) {}

void ReplicationSource::NoteAck(uint64_t txn) {
  durability_->NoteReplicationAck(txn);
  uint64_t seen = last_acked_txn_.load(std::memory_order_relaxed);
  bool advanced = false;
  while (txn > seen) {
    if (last_acked_txn_.compare_exchange_weak(seen, txn,
                                              std::memory_order_relaxed)) {
      advanced = true;
      break;
    }
  }
  if (advanced) {
    // Lock before notifying so a WaitForAck between its predicate check
    // and its wait cannot miss the wakeup.
    std::lock_guard<std::mutex> lock(ack_mu_);
    ack_cv_.notify_all();
  }
}

bool ReplicationSource::WaitForAck(uint64_t txn, int timeout_ms) {
  std::unique_lock<std::mutex> lock(ack_mu_);
  return ack_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [&] {
    return last_acked_txn_.load(std::memory_order_relaxed) >= txn;
  });
}

bool ReplicationSource::DrainAcks(int fd, int timeout_ms) {
  int wait = timeout_ms;
  for (;;) {
    Result<obs::JsonValue> frame = ReadFrame(fd, wait);
    if (!frame.ok()) {
      // Unavailable = nothing waiting (the normal idle case); anything
      // else means the follower is gone and the stream should end.
      return frame.status().code() == StatusCode::kUnavailable;
    }
    if (IsUint(*frame, "ack")) NoteAck(frame->at("ack").AsUint());
    wait = 0;  // drain whatever else is already buffered, without blocking
  }
}

void ReplicationSource::Serve(const obs::JsonValue& handshake, int fd,
                              const std::atomic<bool>& stop) {
  Status armed = FaultInjector::Hit("repl.handshake.primary");
  if (!armed.ok()) {
    (void)WriteFrame(fd, ErrorResponse(Verb::kWalStream, armed));
    return;
  }
  if (!IsUint(handshake, "watermark")) {
    (void)WriteFrame(
        fd, ErrorResponse(Verb::kWalStream,
                          Status::InvalidArgument(
                              "WALSTREAM requires a numeric \"watermark\"")));
    return;
  }
  const uint64_t watermark = handshake.at("watermark").AsUint();
  const uint64_t applied = applied_txns_();
  if (watermark > applied) {
    (void)WriteFrame(
        fd, ErrorResponse(
                Verb::kWalStream,
                Status::InvalidArgument(
                    "follower watermark " + std::to_string(watermark) +
                    " is ahead of the primary (" + std::to_string(applied) +
                    " transactions) — it followed a different history")));
    return;
  }
  // One follower per primary: the replication floor and the semi-sync ack
  // are a single watermark (a monotonic max), so a second concurrent
  // stream would let the faster follower's acks release WAL records the
  // slower one still needs — and the slower follower has no bootstrap
  // path once they are truncated away. Reject the newcomer outright; a
  // legitimately reconnecting follower retries after its backoff and wins
  // the slot once the stale connection is reaped.
  uint64_t no_followers = 0;
  if (!followers_.compare_exchange_strong(no_followers, 1,
                                          std::memory_order_relaxed)) {
    (void)WriteFrame(
        fd, ErrorResponse(
                Verb::kWalStream,
                Status::Unavailable(
                    "a follower is already attached; bbsmined streams to "
                    "exactly one follower per primary")));
    return;
  }
  // Arm the checkpoint-truncate floor before acknowledging the handshake:
  // from here on the WAL keeps every record past the follower's ack.
  durability_->EnableReplicationRetention();
  NoteAck(watermark);

  obs::JsonValue accepted = OkResponse(Verb::kWalStream);
  accepted.Set("watermark", obs::JsonValue::Uint(watermark));
  accepted.Set("end_txn", obs::JsonValue::Uint(applied));
  if (!WriteFrame(fd, accepted).ok()) {
    followers_.fetch_sub(1, std::memory_order_relaxed);
    return;
  }

  uint64_t cursor = watermark;
  // The byte-offset memo keeps the idle poll O(new records): without it
  // every poll_interval_ms the source would re-read and re-parse the
  // whole log from its base — and the retention floor can hold that log
  // long past the checkpoint.
  WriteAheadLog::StreamCursor stream_cursor;
  while (!stop.load(std::memory_order_acquire)) {
    Result<WriteAheadLog::StreamChunk> chunk = WriteAheadLog::ReadRecordsFrom(
        durability_->wal_path(), cursor, options_.chunk_bytes,
        &stream_cursor);
    if (!chunk.ok()) {
      (void)WriteFrame(fd, ErrorResponse(Verb::kWalStream, chunk.status()));
      break;
    }
    lag_bytes_.store(chunk->bytes_remaining - chunk->data.size(),
                     std::memory_order_relaxed);
    if (chunk->records > 0) {
      obs::JsonValue frame = OkResponse(Verb::kWalStream);
      frame.Set("kind", obs::JsonValue::String("records"));
      frame.Set("start_txn", obs::JsonValue::Uint(cursor));
      frame.Set("transactions", obs::JsonValue::Uint(chunk->transactions));
      frame.Set("records", obs::JsonValue::Uint(chunk->records));
      frame.Set("data", obs::JsonValue::String(HexEncode(chunk->data)));
      if (!WriteFrame(fd, frame).ok()) break;
      cursor += chunk->transactions;
      last_streamed_txn_.store(cursor, std::memory_order_relaxed);
      records_shipped_.fetch_add(chunk->records, std::memory_order_relaxed);
      bytes_shipped_.fetch_add(chunk->data.size(), std::memory_order_relaxed);
      if (!DrainAcks(fd, 0)) break;
    } else {
      obs::JsonValue frame = OkResponse(Verb::kWalStream);
      frame.Set("kind", obs::JsonValue::String("heartbeat"));
      frame.Set("end_txn", obs::JsonValue::Uint(chunk->log_end_txn));
      if (!WriteFrame(fd, frame).ok()) break;
      if (!DrainAcks(fd, options_.poll_interval_ms)) break;
    }
  }
  followers_.fetch_sub(1, std::memory_order_relaxed);
}

ReplicationSource::Stats ReplicationSource::stats() const {
  Stats stats;
  stats.followers = followers_.load(std::memory_order_relaxed);
  stats.last_streamed_txn =
      last_streamed_txn_.load(std::memory_order_relaxed);
  stats.last_acked_txn = last_acked_txn_.load(std::memory_order_relaxed);
  stats.records_shipped = records_shipped_.load(std::memory_order_relaxed);
  stats.bytes_shipped = bytes_shipped_.load(std::memory_order_relaxed);
  stats.lag_bytes = lag_bytes_.load(std::memory_order_relaxed);
  stats.ack_timeouts = ack_timeouts_.load(std::memory_order_relaxed);
  return stats;
}

ReplicationFollower::ReplicationFollower(
    const ReplicationFollowerOptions& options, WatermarkFn watermark,
    ApplyFn apply)
    : options_(options),
      watermark_(std::move(watermark)),
      apply_(std::move(apply)) {}

ReplicationFollower::~ReplicationFollower() { Stop(); }

void ReplicationFollower::Start() {
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Run(); });
}

void ReplicationFollower::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
    sleep_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  running_.store(false, std::memory_order_relaxed);
}

void ReplicationFollower::Run() {
  while (!stop_.load(std::memory_order_acquire)) {
    Status status = RunOnce();
    connected_.store(false, std::memory_order_relaxed);
    if (stop_.load(std::memory_order_acquire)) break;
    if (!status.ok() && status.code() != StatusCode::kNotFound &&
        status.code() != StatusCode::kUnavailable) {
      std::fprintf(stderr, "bbsmined: replication stream to %s failed: %s\n",
                   primary_endpoint().c_str(), status.ToString().c_str());
    }
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(sleep_mu_);
    sleep_cv_.wait_for(
        lock, std::chrono::milliseconds(options_.reconnect_backoff_ms),
        [&] { return stop_.load(std::memory_order_acquire); });
  }
  running_.store(false, std::memory_order_relaxed);
}

Status ReplicationFollower::RunOnce() {
  Result<OwnedFd> fd =
      ConnectTcp(options_.host, options_.port, options_.connect_timeout_ms);
  if (!fd.ok()) return fd.status();
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("repl.handshake.follower"));

  obs::JsonValue handshake = VerbRequest(Verb::kWalStream);
  handshake.Set("watermark", obs::JsonValue::Uint(watermark_()));
  BBSMINE_RETURN_IF_ERROR(WriteFrame(fd->get(), handshake));

  Result<obs::JsonValue> reply = ReadFrame(fd->get(), options_.io_timeout_ms);
  while (!reply.ok() &&
         reply.status().code() == StatusCode::kUnavailable &&
         !stop_.load(std::memory_order_acquire)) {
    reply = ReadFrame(fd->get(), options_.io_timeout_ms);
  }
  if (!reply.ok()) return reply.status();
  if (reply->kind() != obs::JsonValue::Kind::kObject || !reply->Has("ok") ||
      !reply->at("ok").AsBool()) {
    return Status::IoError("primary rejected WALSTREAM: " +
                           FrameErrorMessage(*reply));
  }
  connected_.store(true, std::memory_order_relaxed);
  if (IsUint(*reply, "end_txn")) {
    primary_end_txn_.store(reply->at("end_txn").AsUint(),
                           std::memory_order_relaxed);
  }

  while (!stop_.load(std::memory_order_acquire)) {
    Result<obs::JsonValue> frame = ReadFrame(fd->get(), options_.io_timeout_ms);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kUnavailable) {
        continue;  // idle poll: re-check the stop flag
      }
      return frame.status();
    }
    const obs::JsonValue& doc = *frame;
    if (doc.kind() != obs::JsonValue::Kind::kObject || !doc.Has("ok")) {
      return Status::IoError("malformed WALSTREAM frame from primary");
    }
    if (!doc.at("ok").AsBool()) {
      return Status::IoError("primary ended WALSTREAM: " +
                             FrameErrorMessage(doc));
    }
    const std::string kind =
        doc.Has("kind") ? doc.at("kind").AsString() : "";
    if (kind == "heartbeat") {
      if (IsUint(doc, "end_txn")) {
        primary_end_txn_.store(doc.at("end_txn").AsUint(),
                               std::memory_order_relaxed);
      }
      continue;
    }
    if (kind != "records" || !IsUint(doc, "start_txn") ||
        !doc.Has("data") ||
        doc.at("data").kind() != obs::JsonValue::Kind::kString) {
      return Status::IoError("malformed WALSTREAM frame from primary");
    }
    Result<std::string> raw = HexDecode(doc.at("data").AsString());
    if (!raw.ok()) {
      crc_rejects_.fetch_add(1, std::memory_order_relaxed);
      return raw.status();
    }
    std::vector<std::vector<Itemset>> batches;
    Status decoded = WriteAheadLog::DecodeRecords(*raw, &batches);
    if (!decoded.ok()) {
      // A chunk that fails CRC or structural validation is never applied —
      // the connection drops and the reconnect re-fetches clean bytes from
      // the durable watermark.
      crc_rejects_.fetch_add(1, std::memory_order_relaxed);
      return decoded;
    }
    const uint64_t local = watermark_();
    if (doc.at("start_txn").AsUint() != local) {
      return Status::IoError(
          "WALSTREAM position mismatch: primary sent records from " +
          std::to_string(doc.at("start_txn").AsUint()) +
          ", follower is at " + std::to_string(local));
    }
    BBSMINE_RETURN_IF_ERROR(apply_(batches));
    records_applied_.fetch_add(batches.size(), std::memory_order_relaxed);
    primary_end_txn_.store(
        std::max(primary_end_txn_.load(std::memory_order_relaxed),
                 watermark_()),
        std::memory_order_relaxed);
    obs::JsonValue ack = obs::JsonValue::Object();
    ack.Set("ack", obs::JsonValue::Uint(watermark_()));
    BBSMINE_RETURN_IF_ERROR(WriteFrame(fd->get(), ack));
  }
  return Status::Ok();
}

ReplicationFollower::Stats ReplicationFollower::stats() const {
  Stats stats;
  stats.running = running_.load(std::memory_order_relaxed);
  stats.connected = connected_.load(std::memory_order_relaxed);
  stats.primary_end_txn = primary_end_txn_.load(std::memory_order_relaxed);
  stats.records_applied = records_applied_.load(std::memory_order_relaxed);
  stats.crc_rejects = crc_rejects_.load(std::memory_order_relaxed);
  stats.reconnects = reconnects_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace bbsmine::service
