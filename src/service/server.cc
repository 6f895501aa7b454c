#include "service/server.h"

#include <algorithm>
#include <cstdio>
#include <cinttypes>
#include <cstring>
#include <utility>

#include <unistd.h>

#include "baseline/eclat.h"
#include "obs/json.h"
#include "service/replication.h"
#include "service/wire.h"
#include "util/rusage.h"

namespace bbsmine::service {

namespace {

/// Microseconds elapsed since `since` on the steady clock.
uint64_t MicrosSince(std::chrono::steady_clock::time_point since) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - since)
          .count());
}

/// "epoch" member of an ok response, if present (error responses and MINE
/// have none).
uint64_t EpochOf(const obs::JsonValue& response) {
  if (response.kind() != obs::JsonValue::Kind::kObject ||
      !response.Has("epoch")) {
    return 0;
  }
  const obs::JsonValue& epoch = response.at("epoch");
  return epoch.is_number() ? epoch.AsUint() : 0;
}

/// The id minted for requests the client did not tag: "t<seq>", unique
/// per service instance.
void MintTraceId(uint64_t seq, std::string* out) {
  char minted[24];
  std::snprintf(minted, sizeof(minted), "t%" PRIu64, seq);
  *out = minted;
}

/// Persists the fencing term as a decimal line, atomically (write + rename)
/// so a crash mid-promotion leaves the previous term, never a torn file.
Status PersistTerm(const std::string& path, uint64_t term) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return StatusFromErrno("cannot write term file: " + tmp);
  const std::string line = std::to_string(term) + "\n";
  bool ok = std::fwrite(line.data(), 1, line.size(), f) == line.size();
  ok = std::fflush(f) == 0 && ok;
  ok = ::fsync(::fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok || ::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot persist term file: " + path);
  }
  return Status::Ok();
}

}  // namespace

const char* ServiceRoleName(ServiceRole role) {
  switch (role) {
    case ServiceRole::kStandalone:
      return "standalone";
    case ServiceRole::kPrimary:
      return "primary";
    case ServiceRole::kFollower:
      return "follower";
  }
  return "unknown";
}

BbsService::BbsService(SnapshotManager* index, TransactionDatabase* db,
                       const ServiceOptions& options)
    : index_(index),
      db_(db),
      durability_(options.durability),
      options_(options),
      metrics_(options.stats_windows),
      scheduler_(index, options.scheduler, &metrics_, options.tracer),
      role_(static_cast<int>(options.role)),
      term_(options.term),
      start_(std::chrono::steady_clock::now()) {}

uint64_t BbsService::NowRelMicros() const { return MicrosSince(start_); }

obs::JsonValue BbsService::Handle(const obs::JsonValue& request,
                                  const RequestContext& ctx) {
  metrics_.Inc(metrics_.requests_total);
  const uint64_t start_rel_us = NowRelMicros();
  metrics_.MaybeRotateWindows(start_rel_us);
  const Verb verb = VerbOf(request);
  if (verb == Verb::kUnknown) {
    metrics_.Inc(metrics_.errors);
    return UnknownVerbResponse(request);
  }
  if (InfoOf(verb).streaming) {
    // Reached only when the transport did not upgrade the connection —
    // i.e. this daemon has no replication source to stream from.
    metrics_.Inc(metrics_.errors);
    return ErrorResponse(
        verb, Status::InvalidArgument(
                  "WALSTREAM requires a durable primary (--durable-dir)"));
  }

  // Request identity: honor a client-supplied trace_id; otherwise mint one
  // when some sink (tracer, slow log, flight ring) will use it.
  const uint64_t seq = request_seq_.fetch_add(1, std::memory_order_relaxed);
  obs::Tracer* tracer = options_.tracer;
  const bool sampled = tracer != nullptr && options_.trace_sample > 0 &&
                       seq % options_.trace_sample == 0;
  std::string trace_id;
  if (request.Has("trace_id") &&
      request.at("trace_id").kind() == obs::JsonValue::Kind::kString) {
    trace_id = request.at("trace_id").AsString();
  } else if (sampled) {
    // Minting is deliberately lazy: only a sink that actually records the
    // id pays for it (here, and again below if the request turns out
    // slow). Flight events with no id stay unattributed — the dump's
    // connection + seq already identifies them, and there is no trace or
    // slow-log line to correlate with.
    MintTraceId(seq, &trace_id);
  }
  if (sampled) metrics_.Inc(metrics_.traced_requests);

  const auto begin = std::chrono::steady_clock::now();
  const double span_ts_us = sampled ? tracer->NowMicros() : 0;
  CountResult count_result;
  bool counted = false;
  obs::JsonValue response;
  metrics_.Inc(metrics_.requests(verb));
  switch (verb) {
    case Verb::kPing:
      response = HandlePing();
      break;
    case Verb::kCount: {
      CountObs count_obs;
      count_obs.trace_id = trace_id;
      count_obs.sampled = sampled;
      response = HandleCount(request, count_obs, &count_result, &counted);
      break;
    }
    case Verb::kInsert:
      response = HandleInsert(request);
      break;
    case Verb::kMine:
      response = HandleMine(request);
      break;
    case Verb::kStats:
      response = HandleStats();
      break;
    case Verb::kCheckpoint:
      response = HandleCheckpoint();
      break;
    case Verb::kDump:
      response = HandleDump();
      break;
    case Verb::kShardInfo:
      response = HandleShardInfo();
      break;
    case Verb::kPromote:
      response = HandlePromote(request);
      break;
    case Verb::kUnknown:
    case Verb::kWalStream:
      break;  // answered above
  }
  const uint64_t latency_us = MicrosSince(begin);
  metrics_.ObserveLog2(metrics_.latency(verb), latency_us);
  const bool ok = response.at("ok").AsBool();
  if (!ok) metrics_.Inc(metrics_.errors);

  if (sampled && tracer->enabled(obs::kTraceRequest)) {
    std::string args = "\"trace_id\": \"" + obs::JsonEscape(trace_id) +
                       "\", \"verb\": \"" + VerbName(verb) + "\"";
    if (counted) {
      args += ", \"batch\": " + std::to_string(count_result.batch_id);
    }
    tracer->AddComplete(obs::kTraceRequest, "request", span_ts_us,
                        tracer->NowMicros() - span_ts_us, std::move(args));
  }

  // Promotions always land in the slow log regardless of latency:
  // failovers are rare, operationally significant, and exactly what the
  // log's forensic tail exists for.
  const bool promotion_event = ok && verb == Verb::kPromote;
  if (options_.slow_log != nullptr &&
      (latency_us >= options_.slow_query_us || promotion_event)) {
    if (latency_us >= options_.slow_query_us) {
      metrics_.Inc(metrics_.slow_queries);
    }
    if (trace_id.empty()) MintTraceId(seq, &trace_id);
    SlowQueryRecord record;
    record.at_rel_us = start_rel_us;
    record.trace_id = trace_id;
    record.verb = VerbName(verb);
    record.latency_us = latency_us;
    record.queue_wait_us = counted ? count_result.queue_wait_us : 0;
    record.batch_size = counted ? count_result.batch_size : 0;
    if (request.Has("items") &&
        request.at("items").kind() == obs::JsonValue::Kind::kArray) {
      record.items = request.at("items").size();
    }
    record.epoch = EpochOf(response);
    record.slice_words = counted ? count_result.slice_words : 0;
    record.backend = IndexBackendName(options_.index_backend);
    record.ok = ok;
    options_.slow_log->Append(record);
  }

  if (ctx.flight != nullptr) {
    FlightEvent event;
    event.start_rel_us = start_rel_us;
    event.latency_us = latency_us;
    event.queue_wait_us = counted ? count_result.queue_wait_us : 0;
    event.epoch = counted ? count_result.epoch : EpochOf(response);
    event.batch_size = counted ? count_result.batch_size : 0;
    event.verb = verb;
    event.ok = ok;
    std::strncpy(event.trace_id, trace_id.c_str(),
                 FlightEvent::kTraceIdBytes - 1);
    ctx.flight->Record(event);
  }
  return response;
}

obs::JsonValue BbsService::HandlePing() {
  obs::JsonValue response = OkResponse(Verb::kPing);
  response.Set("epoch", obs::JsonValue::Uint(index_->epoch()));
  return response;
}

obs::JsonValue BbsService::HandleCount(const obs::JsonValue& request,
                                       const CountObs& count_obs,
                                       CountResult* out, bool* counted) {
  Result<Itemset> items = ItemsFromJson(request.at("items"));
  if (!items.ok()) return ErrorResponse(Verb::kCount, items.status());
  Status status = scheduler_.Count(*items, count_obs, out);
  if (!status.ok()) return ErrorResponse(Verb::kCount, status);
  *counted = true;
  obs::JsonValue response = OkResponse(Verb::kCount);
  response.Set("items", ItemsToJson(*items));
  response.Set("count", obs::JsonValue::Uint(out->count));
  response.Set("epoch", obs::JsonValue::Uint(out->epoch));
  response.Set("visible_transactions",
               obs::JsonValue::Uint(out->visible_transactions));
  response.Set("batch_size", obs::JsonValue::Uint(out->batch_size));
  response.Set("queue_wait_us", obs::JsonValue::Uint(out->queue_wait_us));
  return response;
}

obs::JsonValue BbsService::HandleInsert(const obs::JsonValue& request) {
  if (draining_.load(std::memory_order_relaxed)) {
    return ErrorResponse(Verb::kInsert,
                         Status::Unavailable("service is draining"));
  }
  if (role() == ServiceRole::kFollower) {
    // A follower's writes arrive only over the replication stream; a
    // client INSERT here would fork its history from the primary's.
    return ErrorResponse(
        Verb::kInsert, Status::InvalidArgument(
                           "this daemon is a read-only follower (of " +
                           (options_.follower != nullptr
                                ? options_.follower->primary_endpoint()
                                : std::string("a primary")) +
                           "); it accepts INSERT only after PROMOTE"));
  }
  // Accept either one transaction ("items") or several ("transactions").
  std::vector<Itemset> batch;
  if (request.Has("transactions")) {
    const obs::JsonValue& txns = request.at("transactions");
    if (txns.kind() != obs::JsonValue::Kind::kArray) {
      return ErrorResponse(Verb::kInsert,
                           Status::InvalidArgument("\"transactions\" must be "
                                                   "an array of item arrays"));
    }
    batch.reserve(txns.size());
    for (size_t i = 0; i < txns.size(); ++i) {
      Result<Itemset> items = ItemsFromJson(txns.at(i));
      if (!items.ok()) return ErrorResponse(Verb::kInsert, items.status());
      batch.push_back(std::move(*items));
    }
  } else {
    Result<Itemset> items = ItemsFromJson(request.at("items"));
    if (!items.ok()) return ErrorResponse(Verb::kInsert, items.status());
    batch.push_back(std::move(*items));
  }
  if (batch.empty()) {
    return ErrorResponse(
        Verb::kInsert, Status::InvalidArgument("no transactions to insert"));
  }
  uint64_t epoch;
  uint64_t transactions;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (durability_ != nullptr) {
      // WAL first: the batch must be durable (per the fsync policy) before
      // it can become visible or acknowledged. A failed append leaves the
      // WAL truncated back to its pre-batch length, so nothing is applied
      // and the client may safely retry.
      Status logged = durability_->LogInsert(batch);
      if (!logged.ok()) return ErrorResponse(Verb::kInsert, logged);
    }
    // One publication for the whole batch: readers see all of it or none.
    Status inserted = index_->InsertBatch(batch);
    if (!inserted.ok()) return ErrorResponse(Verb::kInsert, inserted);
    if (db_ != nullptr) {
      for (const Itemset& items : batch) db_->Append(items);
    }
    // Fold cold sealed segments before the checkpoint below so a triggered
    // checkpoint persists the compacted generation.
    size_t compacted = index_->CompactColdSegments(options_.compaction);
    if (compacted > 0) {
      metrics_.Inc(metrics_.compacted_segments, compacted);
    }
    const Snapshot published = index_->Acquire();
    epoch = published.epoch();
    transactions = published.num_transactions();
    if (durability_ != nullptr && durability_->ShouldCheckpoint()) {
      // The batch is already durable in the WAL, so a failed automatic
      // checkpoint must not fail the insert; it just leaves more WAL to
      // replay. Surface it and move on.
      Status checkpointed = durability_->Checkpoint(index_->Acquire(), db_);
      if (!checkpointed.ok()) {
        std::fprintf(stderr, "bbsmined: automatic checkpoint failed: %s\n",
                     checkpointed.ToString().c_str());
      }
    }
  }
  metrics_.Inc(metrics_.inserted_transactions, batch.size());
  obs::JsonValue response = OkResponse(Verb::kInsert);
  response.Set("inserted", obs::JsonValue::Uint(batch.size()));
  response.Set("epoch", obs::JsonValue::Uint(epoch));
  response.Set("transactions", obs::JsonValue::Uint(transactions));
  if (options_.replication != nullptr && options_.repl_ack) {
    // Semi-sync: hold the ack (outside the write mutex — later INSERTs
    // keep flowing) until the follower durably has this batch. On timeout
    // the write is still acknowledged, flagged unreplicated — degrading
    // one response beats wedging the write path on a dead follower.
    const bool replicated = options_.replication->WaitForAck(
        transactions, options_.repl_ack_timeout_ms);
    if (!replicated) options_.replication->NoteAckTimeout();
    response.Set("replicated", obs::JsonValue::Bool(replicated));
  }
  return response;
}

obs::JsonValue BbsService::HandleMine(const obs::JsonValue& request) {
  if (db_ == nullptr) {
    return ErrorResponse(
        Verb::kMine, Status::InvalidArgument(
                         "MINE requires the daemon to be started with --db"));
  }
  if (request.Has("candidates")) return HandleMineCandidates(request);
  Result<MineArgs> args = MineArgsFromJson(
      request, MineArgs{options_.default_min_support, options_.mine_top});
  if (!args.ok()) return ErrorResponse(Verb::kMine, args.status());
  EclatConfig config;
  config.min_support = args->min_support;
  const size_t top = args->top;
  // No lock: the published prefix is immutable, so INSERTs keep appending
  // past it while this pass runs.
  const DatabaseView view = db_->Prefix();
  MiningResult result = MineEclat(view, config);
  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const Pattern& a, const Pattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.items < b.items;
            });
  size_t total_frequent = result.patterns.size();
  if (result.patterns.size() > top) result.patterns.resize(top);
  obs::JsonValue patterns = obs::JsonValue::Array();
  for (const Pattern& pattern : result.patterns) {
    obs::JsonValue entry = obs::JsonValue::Object();
    entry.Set("items", ItemsToJson(pattern.items));
    entry.Set("support", obs::JsonValue::Uint(pattern.support));
    patterns.Append(std::move(entry));
  }
  obs::JsonValue response = OkResponse(Verb::kMine);
  response.Set("min_support", obs::JsonValue::Double(config.min_support));
  response.Set("transactions", obs::JsonValue::Uint(view.size()));
  response.Set("total_frequent", obs::JsonValue::Uint(total_frequent));
  response.Set("patterns", std::move(patterns));
  return response;
}

obs::JsonValue BbsService::HandleMineCandidates(const obs::JsonValue& request) {
  // The second round of the router's global-τ exchange: exact supports for
  // an explicit candidate list, no local mining. Counting scans the
  // database (not the Bloom index) so the supports are exact — the router
  // merges them with round-1 supports into a globally bit-identical answer.
  const obs::JsonValue& array = request.at("candidates");
  if (array.kind() != obs::JsonValue::Kind::kArray) {
    return ErrorResponse(Verb::kMine, Status::InvalidArgument(
                                          "\"candidates\" must be an array of "
                                          "item arrays"));
  }
  std::vector<Itemset> candidates;
  candidates.reserve(array.size());
  for (size_t i = 0; i < array.size(); ++i) {
    Result<Itemset> items = ItemsFromJson(array.at(i));
    if (!items.ok()) return ErrorResponse(Verb::kMine, items.status());
    candidates.push_back(std::move(*items));
  }
  // The scan reads an immutable prefix without the write lock: "at_txn"
  // pins it (the router passes its round-1 total so both rounds read one
  // prefix), defaulting to everything published now.
  const size_t published = db_->size();
  size_t at_txn = published;
  if (request.Has("at_txn")) {
    const obs::JsonValue& requested = request.at("at_txn");
    if (!requested.is_number() || requested.AsInt() < 0) {
      return ErrorResponse(Verb::kMine, Status::InvalidArgument(
                                            "\"at_txn\" must be a non-negative "
                                            "int"));
    }
    at_txn = static_cast<size_t>(requested.AsUint());
    if (at_txn > published) {
      return ErrorResponse(
          Verb::kMine, Status::InvalidArgument(
                           "\"at_txn\" " + std::to_string(at_txn) +
                           " is past the " + std::to_string(published) +
                           " transactions this shard holds"));
    }
  }
  const DatabaseView view = db_->Prefix(at_txn);
  std::vector<uint64_t> supports(candidates.size(), 0);
  view.ForEach(nullptr, [&](const Transaction& txn) {
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (IsSubsetOf(candidates[c], txn.items)) ++supports[c];
    }
  });
  obs::JsonValue supports_json = obs::JsonValue::Array();
  for (uint64_t support : supports) {
    supports_json.Append(obs::JsonValue::Uint(support));
  }
  obs::JsonValue response = OkResponse(Verb::kMine);
  response.Set("transactions", obs::JsonValue::Uint(at_txn));
  response.Set("candidates", obs::JsonValue::Uint(candidates.size()));
  response.Set("supports", std::move(supports_json));
  return response;
}

obs::JsonValue BbsService::HandleShardInfo() {
  // The shard's routing signature: the OR-fold of its segment signature
  // columns — bit p is set iff any segment has a non-empty slice p. A
  // folded (compacted) segment stores slice p%f for full-width position p,
  // so its fold is expanded back to full width; that can only over-set
  // bits, which keeps router pruning conservative (never wrong, possibly
  // less effective on folded shards).
  Snapshot snap = index_->Acquire();
  const BbsConfig& config = snap.config();
  BitVector signature(config.num_bits);
  for (size_t s = 0; s < snap.num_segments(); ++s) {
    const BbsIndex& segment = snap.segment(s);
    const uint32_t width = segment.num_bits();
    for (uint32_t pos = 0; pos < config.num_bits; ++pos) {
      if (!signature.Get(pos) && segment.SlicePopcount(pos % width) > 0) {
        signature.Set(pos);
      }
    }
  }
  obs::JsonValue config_json = obs::JsonValue::Object();
  config_json.Set("bits", obs::JsonValue::Uint(config.num_bits));
  config_json.Set("hashes", obs::JsonValue::Uint(config.num_hashes));
  config_json.Set("hash_kind",
                  obs::JsonValue::Uint(static_cast<uint64_t>(config.hash_kind)));
  config_json.Set("seed", obs::JsonValue::Uint(config.seed));
  obs::JsonValue response = OkResponse(Verb::kShardInfo);
  response.Set("epoch", obs::JsonValue::Uint(snap.epoch()));
  response.Set("transactions", obs::JsonValue::Uint(snap.num_transactions()));
  response.Set("segments", obs::JsonValue::Uint(snap.num_segments()));
  response.Set("mine_enabled", obs::JsonValue::Bool(db_ != nullptr));
  response.Set("role", obs::JsonValue::String(ServiceRoleName(role())));
  response.Set("term", obs::JsonValue::Uint(term()));
  response.Set("config", std::move(config_json));
  response.Set("signature_bits", obs::JsonValue::Uint(config.num_bits));
  response.Set("signature", obs::JsonValue::String(BitsToHex(signature)));
  return response;
}

obs::JsonValue BbsService::HandleCheckpoint() {
  if (durability_ == nullptr) {
    return ErrorResponse(
        Verb::kCheckpoint,
        Status::InvalidArgument(
            "CHECKPOINT requires the daemon to be started with "
            "--durable-dir"));
  }
  uint64_t epoch;
  uint64_t transactions;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    Snapshot snap = index_->Acquire();
    epoch = snap.epoch();
    transactions = snap.num_transactions();
    Status checkpointed = durability_->Checkpoint(snap, db_);
    if (!checkpointed.ok()) {
      return ErrorResponse(Verb::kCheckpoint, checkpointed);
    }
  }
  obs::JsonValue response = OkResponse(Verb::kCheckpoint);
  response.Set("epoch", obs::JsonValue::Uint(epoch));
  response.Set("transactions", obs::JsonValue::Uint(transactions));
  response.Set("checkpoints", obs::JsonValue::Uint(durability_->checkpoints()));
  return response;
}

obs::JsonValue BbsService::HandlePromote(const obs::JsonValue& request) {
  if (!request.Has("term") || !request.at("term").is_number()) {
    return ErrorResponse(
        Verb::kPromote,
        Status::InvalidArgument("PROMOTE requires a numeric \"term\""));
  }
  const uint64_t new_term = request.at("term").AsUint();
  bool promoted = false;
  uint64_t transactions;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    const uint64_t current = term();
    if (new_term < current) {
      // Fencing: a router working from a newer shard map has already moved
      // the shard past this term; whoever sent this is stale.
      return ErrorResponse(
          Verb::kPromote,
          Status::InvalidArgument(
              "stale term " + std::to_string(new_term) +
              " (this node is at term " + std::to_string(current) + ")"));
    }
    // new_term == current re-promotes idempotently (a retried PROMOTE
    // after a dropped response must not fail the failover).
    if (!options_.term_file.empty()) {
      Status persisted = PersistTerm(options_.term_file, new_term);
      if (!persisted.ok()) return ErrorResponse(Verb::kPromote, persisted);
    }
    term_.store(new_term, std::memory_order_relaxed);
    promoted = role() != ServiceRole::kPrimary;
    role_.store(static_cast<int>(ServiceRole::kPrimary),
                std::memory_order_relaxed);
    transactions = index_->num_transactions();
  }
  if (promoted) {
    promotions_.fetch_add(1, std::memory_order_relaxed);
    if (options_.on_promote) options_.on_promote();
    std::fprintf(stderr,
                 "bbsmined: promoted to primary at term %llu "
                 "(%llu transactions)\n",
                 static_cast<unsigned long long>(new_term),
                 static_cast<unsigned long long>(transactions));
  }
  obs::JsonValue response = OkResponse(Verb::kPromote);
  response.Set("role", obs::JsonValue::String(ServiceRoleName(role())));
  response.Set("term", obs::JsonValue::Uint(term()));
  response.Set("transactions", obs::JsonValue::Uint(transactions));
  response.Set("promoted", obs::JsonValue::Bool(promoted));
  return response;
}

bool BbsService::IsStreamingVerb(Verb verb) const {
  return InfoOf(verb).streaming && options_.replication != nullptr &&
         durability_ != nullptr;
}

void BbsService::ServeStream(const obs::JsonValue& request, int fd,
                             const std::atomic<bool>& stop) {
  options_.replication->Serve(request, fd, stop);
}

Status BbsService::ApplyReplicated(
    const std::vector<std::vector<Itemset>>& batches) {
  std::lock_guard<std::mutex> lock(write_mu_);
  uint64_t applied = 0;
  for (const std::vector<Itemset>& batch : batches) {
    // Identical to the INSERT path: WAL first (the follower's own log —
    // its durability story is the primary's, re-proven locally), then the
    // index and database.
    if (durability_ != nullptr) {
      BBSMINE_RETURN_IF_ERROR(durability_->LogInsert(batch));
    }
    BBSMINE_RETURN_IF_ERROR(index_->InsertBatch(batch));
    if (db_ != nullptr) {
      for (const Itemset& items : batch) db_->Append(items);
    }
    applied += batch.size();
  }
  size_t compacted = index_->CompactColdSegments(options_.compaction);
  if (compacted > 0) metrics_.Inc(metrics_.compacted_segments, compacted);
  if (durability_ != nullptr && durability_->ShouldCheckpoint()) {
    Status checkpointed = durability_->Checkpoint(index_->Acquire(), db_);
    if (!checkpointed.ok()) {
      std::fprintf(stderr, "bbsmined: automatic checkpoint failed: %s\n",
                   checkpointed.ToString().c_str());
    }
  }
  metrics_.Inc(metrics_.inserted_transactions, applied);
  return Status::Ok();
}

obs::JsonValue BbsService::HandleStats() {
  obs::JsonValue response = OkResponse(Verb::kStats);
  response.Set("report", BuildStatsReport());
  return response;
}

obs::JsonValue BbsService::HandleDump() {
  if (options_.flight_recorder == nullptr) {
    return ErrorResponse(
        Verb::kDump, Status::InvalidArgument(
                         "DUMP requires the daemon's flight recorder (started "
                         "with --flight-recorder-size > 0)"));
  }
  obs::JsonValue response = OkResponse(Verb::kDump);
  response.Set("flight",
               options_.flight_recorder->DumpJson(NowRelMicros()));
  return response;
}

obs::JsonValue BbsService::BuildReplicationSection() const {
  if (options_.replication == nullptr && options_.follower == nullptr &&
      role() == ServiceRole::kStandalone) {
    return obs::JsonValue();  // null: report renders {"enabled": false}
  }
  obs::JsonValue section = obs::JsonValue::Object();
  section.Set("enabled", obs::JsonValue::Bool(true));
  section.Set("role", obs::JsonValue::String(ServiceRoleName(role())));
  section.Set("term", obs::JsonValue::Uint(term()));
  section.Set("promotions",
              obs::JsonValue::Uint(promotions_.load(std::memory_order_relaxed)));
  if (options_.replication != nullptr) {
    const ReplicationSource::Stats stats = options_.replication->stats();
    const uint64_t applied = index_->num_transactions();
    section.Set("semi_sync", obs::JsonValue::Bool(options_.repl_ack));
    section.Set("followers", obs::JsonValue::Uint(stats.followers));
    section.Set("last_acked_txn", obs::JsonValue::Uint(stats.last_acked_txn));
    section.Set("lag_records",
                obs::JsonValue::Uint(applied > stats.last_acked_txn
                                         ? applied - stats.last_acked_txn
                                         : 0));
    section.Set("lag_bytes", obs::JsonValue::Uint(stats.lag_bytes));
    section.Set("records_shipped",
                obs::JsonValue::Uint(stats.records_shipped));
    section.Set("bytes_shipped", obs::JsonValue::Uint(stats.bytes_shipped));
    section.Set("ack_timeouts", obs::JsonValue::Uint(stats.ack_timeouts));
  }
  if (options_.follower != nullptr) {
    const ReplicationFollower::Stats stats = options_.follower->stats();
    const uint64_t applied = index_->num_transactions();
    section.Set("primary",
                obs::JsonValue::String(options_.follower->primary_endpoint()));
    section.Set("connected", obs::JsonValue::Bool(stats.connected));
    section.Set("last_applied_txn", obs::JsonValue::Uint(applied));
    section.Set("lag_records",
                obs::JsonValue::Uint(stats.primary_end_txn > applied
                                         ? stats.primary_end_txn - applied
                                         : 0));
    section.Set("records_applied",
                obs::JsonValue::Uint(stats.records_applied));
    section.Set("crc_rejects", obs::JsonValue::Uint(stats.crc_rejects));
    section.Set("reconnects", obs::JsonValue::Uint(stats.reconnects));
  }
  return section;
}

obs::JsonValue BbsService::BuildStatsReport() const {
  Snapshot snap = index_->Acquire();
  ServiceReportContext ctx;
  ctx.uptime_seconds =
      static_cast<double>(MicrosSince(start_)) / 1e6;
  ctx.epoch = snap.epoch();
  ctx.transactions = snap.num_transactions();
  ctx.segments = snap.num_segments();
  ctx.snapshot_publications = index_->publications();
  ctx.snapshot_seals = index_->seals();
  ctx.segment_capacity = index_->segment_capacity();
  ctx.draining = draining_.load(std::memory_order_relaxed);
  ctx.mine_enabled = db_ != nullptr;
  ctx.index_backend = IndexBackendName(options_.index_backend);
  ctx.resident_slice_bytes = snap.ApproxResidentBytes();
  MemoryGauges& memory = ctx.memory.emplace();
  const IndexMemory index_memory = index_->Memory();
  memory.sealed_slice_bytes = index_memory.sealed_slices;
  memory.tail_slice_bytes = index_memory.tail_slices;
  memory.signature_bit_bytes = index_memory.signature_bits;
  memory.popcount_bytes = index_memory.popcounts;
  memory.item_count_bytes = index_memory.item_counts;
  memory.hash_position_bytes = index_memory.hash_positions;
  if (db_ != nullptr) {
    const TransactionDatabase::MemoryBytes db_memory = db_->Memory();
    memory.db_record_bytes = db_memory.records;
    memory.db_tid_offset_bytes = db_memory.tid_offsets;
  }
  if (options_.tracer != nullptr) {
    memory.trace_ring_bytes = options_.tracer->MemoryBytes();
  }
  if (options_.flight_recorder != nullptr) {
    memory.flight_ring_bytes = options_.flight_recorder->MemoryBytes();
  }
  const PageFaultCounters faults = CurrentPageFaults();
  ctx.minor_faults = faults.minor;
  ctx.major_faults = faults.major;
  ctx.compaction_enabled = options_.compaction.enabled();
  ctx.compact_cold_epochs = options_.compaction.cold_epochs;
  ctx.compact_fold_bits = options_.compaction.fold_bits;
  ctx.compacted_segments = index_->compactions();
  ctx.pending_requests = scheduler_.pending();
  if (const std::atomic<uint64_t>* live =
          live_connections_.load(std::memory_order_acquire);
      live != nullptr) {
    ctx.open_connections = live->load(std::memory_order_relaxed);
  }
  ctx.window_now_us = MicrosSince(start_);
  metrics_.MaybeRotateWindows(ctx.window_now_us);
  if (durability_ != nullptr) {
    std::lock_guard<std::mutex> lock(write_mu_);
    ctx.durable = true;
    ctx.fsync_policy = durability_->fsync_policy_name();
    ctx.checkpoint_every = durability_->checkpoint_every();
    ctx.wal_appends = durability_->wal_appends();
    ctx.wal_bytes = durability_->wal_bytes();
    ctx.wal_fsyncs = durability_->wal_fsyncs();
    memory.wal_buffer_bytes = durability_->wal_buffer_bytes();
    ctx.checkpoints = durability_->checkpoints();
    ctx.wal_txns_since_checkpoint = durability_->txns_since_checkpoint();
    ctx.wal_truncations_deferred = durability_->wal_truncations_deferred();
    const DurabilityManager::RecoveryInfo& recovery = durability_->recovery();
    ctx.checkpoint_loaded = recovery.checkpoint_loaded;
    ctx.recovered_records = recovery.recovered_records;
    ctx.torn_tail_bytes = recovery.torn_tail_bytes;
    ctx.recovery_seconds = recovery.recovery_seconds;
  }
  ctx.replication = BuildReplicationSection();
  return BuildServiceReport(ctx, metrics_);
}

void BbsService::Drain() {
  draining_.store(true, std::memory_order_relaxed);
  scheduler_.Shutdown();
}

SocketServer::SocketServer(RequestHandler* service,
                           const SocketServerOptions& options)
    : service_(service), options_(options) {}

SocketServer::~SocketServer() { Stop(); }

Status SocketServer::Start() {
  Result<OwnedFd> listener =
      ListenTcp(options_.host, options_.port, options_.backlog);
  if (!listener.ok()) return listener.status();
  Result<uint16_t> port = BoundPort(listener->get());
  if (!port.ok()) return port.status();
  listener_ = std::move(*listener);
  port_ = *port;
  service_->AttachConnectionCounter(&open_connections_);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void SocketServer::AcceptLoop() {
  while (!stop_.load(std::memory_order_acquire)) {
    Result<OwnedFd> accepted =
        AcceptWithTimeout(listener_.get(), options_.poll_interval_ms);
    if (!accepted.ok()) {
      if (stop_.load(std::memory_order_acquire)) return;
      continue;  // transient accept failure; keep serving
    }
    if (!accepted->valid()) continue;  // poll timeout: re-check stop flag
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinishedLocked();
    auto conn = std::make_unique<Connection>();
    Connection* slot = conn.get();
    uint64_t open = open_connections_.fetch_add(1) + 1;
    service_->metrics().GaugeMax(service_->metrics().active_connections,
                                 open);
    uint64_t connection_id = next_connection_id_.fetch_add(1) + 1;
    slot->thread = std::thread(
        [this, fd = std::move(*accepted), slot, connection_id]() mutable {
          ServeConnection(std::move(fd), slot, connection_id);
        });
    connections_.push_back(std::move(conn));
  }
}

void SocketServer::ServeConnection(OwnedFd fd, Connection* slot,
                                   uint64_t connection_id) {
  RequestContext ctx;
  ctx.connection_id = connection_id;
  FlightRecorder* recorder = service_->flight_recorder();
  if (recorder != nullptr) ctx.flight = recorder->AcquireRing(connection_id);
  while (!stop_.load(std::memory_order_acquire)) {
    Result<obs::JsonValue> request =
        ReadFrame(fd.get(), options_.poll_interval_ms);
    if (!request.ok()) {
      if (request.status().code() == StatusCode::kUnavailable) {
        continue;  // idle poll timeout: re-check the stop flag
      }
      if (request.status().code() != StatusCode::kNotFound) {
        // Best effort: tell the peer what went wrong before closing.
        (void)WriteFrame(fd.get(), ErrorResponse("", request.status()));
      }
      break;  // clean disconnect or broken transport either way
    }
    if (service_->IsStreamingVerb(VerbOf(*request))) {
      // The stream owns the connection from here: it writes its own
      // frames until stop/disconnect, and the socket closes afterwards
      // (a stream cannot fall back to request/response).
      service_->ServeStream(*request, fd.get(), stop_);
      break;
    }
    obs::JsonValue response = service_->Handle(*request, ctx);
    if (!WriteFrame(fd.get(), response).ok()) break;
  }
  fd.Reset();
  if (recorder != nullptr) recorder->ReleaseRing(ctx.flight);
  open_connections_.fetch_sub(1);
  slot->done.store(true, std::memory_order_release);
}

void SocketServer::ReapFinishedLocked() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    if ((*it)->done.load(std::memory_order_acquire)) {
      (*it)->thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::Stop() {
  stop_.store(true, std::memory_order_release);
  if (accept_thread_.joinable()) accept_thread_.join();
  std::lock_guard<std::mutex> lock(conn_mu_);
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  listener_.Reset();
}

}  // namespace bbsmine::service
