// Fault-injection tests for the replication stream (ctest label: faults).
//
// The follower's safety contract under a hostile or broken wire: a chunk
// that fails CRC or structural validation is NEVER applied — the
// connection drops and the reconnect re-fetches clean bytes from the
// durable watermark. Crash points on both handshake ends prove a kill -9
// at the protocol boundary leaves nothing half-armed.
//
// These tests run in their own binary: fault points are process-global,
// and the crash legs fork children that _Exit(137) at the armed boundary.

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/segmented_bbs.h"
#include "obs/json.h"
#include "service/durability.h"
#include "service/replication.h"
#include "service/wal.h"
#include "service/wire.h"
#include "util/fault_injector.h"
#include "util/socket.h"
#include "util/status.h"

namespace bbsmine::service {
namespace {

BbsConfig SmallConfig() {
  BbsConfig config;
  config.num_bits = 256;
  config.num_hashes = 3;
  return config;
}

std::string TempDir(const std::string& name) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::to_string(::getpid()) + "_" + name))
                        .string();
  std::filesystem::remove_all(dir);
  return dir;
}

SegmentedBbs EmptyIndex() {
  return SegmentedBbs::Create(SmallConfig(), 4).value();
}

bool WaitUntil(const std::function<bool()>& pred, int timeout_ms = 15'000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return pred();
}

/// Real WAL record bytes for `batches`, produced by the real writer so
/// the corruption below is the only lie in the stream.
std::string RecordBytes(const std::string& name,
                        const std::vector<std::vector<Itemset>>& batches) {
  std::string dir = TempDir(name);
  std::filesystem::create_directories(dir);
  auto wal = WriteAheadLog::Create(dir + "/wal", 0, WalOptions());
  EXPECT_TRUE(wal.ok());
  for (const auto& batch : batches) EXPECT_TRUE(wal->Append(batch).ok());
  auto chunk = WriteAheadLog::ReadRecordsFrom(dir + "/wal", 0, 1 << 20);
  EXPECT_TRUE(chunk.ok());
  return chunk->data;
}

/// A scripted primary: accepts WALSTREAM handshakes in a loop and answers
/// every one with the same poisoned records frame. Each follower attempt
/// sees identical bytes, so a reject-then-reconnect follower keeps
/// rejecting rather than accidentally succeeding on retry.
class PoisonedPrimary {
 public:
  explicit PoisonedPrimary(std::string poisoned_hex)
      : poisoned_hex_(std::move(poisoned_hex)) {
    auto listener = ListenTcp("127.0.0.1", 0, 4);
    EXPECT_TRUE(listener.ok());
    port_ = BoundPort(listener->get()).value();
    thread_ = std::thread([this, fd = std::move(*listener)]() mutable {
      Serve(fd.get());
    });
  }

  ~PoisonedPrimary() {
    stop_.store(true, std::memory_order_release);
    if (thread_.joinable()) thread_.join();
  }

  uint16_t port() const { return port_; }
  uint64_t handshakes() const {
    return handshakes_.load(std::memory_order_relaxed);
  }

 private:
  void Serve(int listen_fd) {
    while (!stop_.load(std::memory_order_acquire)) {
      Result<OwnedFd> conn = AcceptWithTimeout(listen_fd, 100);
      if (!conn.ok()) continue;
      Result<obs::JsonValue> handshake = ReadFrame(conn->get(), 2'000);
      if (!handshake.ok() || !handshake->Has("watermark")) continue;
      handshakes_.fetch_add(1, std::memory_order_relaxed);

      obs::JsonValue accepted = OkResponse(Verb::kWalStream);
      accepted.Set("watermark", handshake->at("watermark"));
      accepted.Set("end_txn", obs::JsonValue::Uint(2));
      if (!WriteFrame(conn->get(), accepted).ok()) continue;

      obs::JsonValue frame = OkResponse(Verb::kWalStream);
      frame.Set("kind", obs::JsonValue::String("records"));
      frame.Set("start_txn", obs::JsonValue::Uint(0));
      frame.Set("transactions", obs::JsonValue::Uint(2));
      frame.Set("records", obs::JsonValue::Uint(2));
      frame.Set("data", obs::JsonValue::String(poisoned_hex_));
      if (!WriteFrame(conn->get(), frame).ok()) continue;
      // An honest follower acks; a rejecting one just closes. Either way
      // we linger briefly so the follower reads the frame before EOF.
      (void)ReadFrame(conn->get(), 200);
    }
  }

  std::string poisoned_hex_;
  uint16_t port_ = 0;
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> handshakes_{0};
  std::thread thread_;
};

/// A follower wired to record what it applies instead of a real service.
struct RecordingFollower {
  std::mutex mu;
  std::vector<std::vector<Itemset>> applied;  // guarded by mu
  std::unique_ptr<ReplicationFollower> follower;

  explicit RecordingFollower(uint16_t port) {
    ReplicationFollowerOptions options;
    options.host = "127.0.0.1";
    options.port = port;
    options.reconnect_backoff_ms = 20;
    follower = std::make_unique<ReplicationFollower>(
        options,
        [this] {
          std::lock_guard<std::mutex> lock(mu);
          uint64_t txns = 0;
          for (const auto& batch : applied) txns += batch.size();
          return txns;
        },
        [this](const std::vector<std::vector<Itemset>>& batches) {
          std::lock_guard<std::mutex> lock(mu);
          for (const auto& batch : batches) applied.push_back(batch);
          return Status::Ok();
        });
  }

  size_t applied_batches() {
    std::lock_guard<std::mutex> lock(mu);
    return applied.size();
  }
};

class ReplicationFaultTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Disarm(); }
  void TearDown() override { FaultInjector::Disarm(); }
};

TEST_F(ReplicationFaultTest, CrcCorruptedChunkIsRejectedAndNeverApplied) {
  std::string data = RecordBytes("rf_crc", {{{1, 2}}, {{3, 4}}});
  data[data.size() / 2] ^= 0x20;  // flip one payload bit; CRC now lies
  PoisonedPrimary primary(HexEncode(data));

  RecordingFollower recorder(primary.port());
  recorder.follower->Start();
  // The follower must keep rejecting across reconnects: two handshakes
  // prove a full reject → drop → re-fetch → reject cycle, not a one-off.
  EXPECT_TRUE(WaitUntil([&] {
    return recorder.follower->stats().crc_rejects >= 2 &&
           primary.handshakes() >= 2;
  }));
  recorder.follower->Stop();

  EXPECT_EQ(recorder.applied_batches(), 0u);
  const ReplicationFollower::Stats stats = recorder.follower->stats();
  EXPECT_EQ(stats.records_applied, 0u);
  EXPECT_GE(stats.crc_rejects, 2u);
  EXPECT_GE(stats.reconnects, 2u);
}

TEST_F(ReplicationFaultTest, TornRecordChunkIsRejectedAndNeverApplied) {
  std::string data = RecordBytes("rf_torn", {{{1, 2}}, {{3, 4}}});
  // Ship a chunk whose final record is cut mid-payload — the shape a
  // crashing primary could produce if it streamed unvalidated bytes.
  PoisonedPrimary primary(HexEncode(data.substr(0, data.size() - 3)));

  RecordingFollower recorder(primary.port());
  recorder.follower->Start();
  EXPECT_TRUE(WaitUntil(
      [&] { return recorder.follower->stats().crc_rejects >= 2; }));
  recorder.follower->Stop();

  EXPECT_EQ(recorder.applied_batches(), 0u);
  EXPECT_EQ(recorder.follower->stats().records_applied, 0u);
}

TEST_F(ReplicationFaultTest, HandshakeFailureOnFollowerSideTriggersBackoff) {
  // A listener that never accepts still completes the TCP handshake (the
  // SYN backlog), so the follower reaches its own handshake fault point.
  auto listener = ListenTcp("127.0.0.1", 0, 4);
  ASSERT_TRUE(listener.ok());
  const uint16_t port = BoundPort(listener->get()).value();
  ASSERT_TRUE(
      FaultInjector::Arm("repl.handshake.follower:fail_after=0,err=EIO")
          .ok());

  RecordingFollower recorder(port);
  recorder.follower->Start();
  EXPECT_TRUE(
      WaitUntil([&] { return recorder.follower->stats().reconnects >= 3; }));
  recorder.follower->Stop();
  EXPECT_EQ(recorder.applied_batches(), 0u);
  EXPECT_FALSE(recorder.follower->stats().connected);
}

TEST_F(ReplicationFaultTest, PrimaryCrashAtHandshakeBoundaryExitsAt137) {
  const std::string dir = TempDir("rf_crash_p");
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm the crash point, then walk straight into it via Serve.
    if (!FaultInjector::Arm("repl.handshake.primary:crash_after=0").ok()) {
      ::_exit(99);
    }
    auto mgr = DurabilityManager::Open(
        DurabilityOptions{dir, WalOptions(), 0}, EmptyIndex(), nullptr);
    if (!mgr.ok()) ::_exit(98);
    ReplicationSource source(mgr->get(), [] { return uint64_t{0}; },
                             ReplicationSourceOptions{});
    int fds[2];
    if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) ::_exit(97);
    obs::JsonValue handshake = obs::JsonValue::Object();
    handshake.Set("verb", obs::JsonValue::String("WALSTREAM"));
    handshake.Set("watermark", obs::JsonValue::Uint(0));
    std::atomic<bool> stop{false};
    source.Serve(handshake, fds[0], stop);  // _Exit(137) inside
    ::_exit(96);                            // crash point did not fire
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 137);
}

TEST_F(ReplicationFaultTest, FollowerCrashAtHandshakeBoundaryExitsAt137) {
  pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!FaultInjector::Arm("repl.handshake.follower:crash_after=0").ok()) {
      ::_exit(99);
    }
    auto listener = ListenTcp("127.0.0.1", 0, 4);
    if (!listener.ok()) ::_exit(98);
    auto port = BoundPort(listener->get());
    if (!port.ok()) ::_exit(97);
    ReplicationFollowerOptions options;
    options.host = "127.0.0.1";
    options.port = *port;
    ReplicationFollower follower(
        options, [] { return uint64_t{0}; },
        [](const std::vector<std::vector<Itemset>>&) {
          return Status::Ok();
        });
    follower.Start();  // connects, then hits the crash point
    std::this_thread::sleep_for(std::chrono::seconds(10));
    ::_exit(96);
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), 137);
}

}  // namespace
}  // namespace bbsmine::service
