#include <algorithm>
#include <cstdio>

#include "bench.h"
#include "datagen/quest_gen.h"
#include "util/rng.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, const char* workload, const char* stream,
                 uint64_t index) {
  // FNV-1a over the names, mixed with the run seed and the index; the Rng
  // constructor's SplitMix expansion decorrelates neighbouring values.
  uint64_t h = 0xcbf29ce484222325ull;
  for (const char* s : {workload, "/", stream}) {
    for (; *s != '\0'; ++s) {
      h ^= static_cast<unsigned char>(*s);
      h *= 0x100000001b3ull;
    }
  }
  return h ^ (seed * 0x9e3779b97f4a7c15ull) ^ (index * 0xbf58476d1ce4e5b9ull);
}

Inputs GenerateInputs(const WorkloadSpec& spec) {
  bbsmine::QuestConfig quest;
  quest.num_transactions = spec.transactions + spec.insert_pool;
  quest.num_items = spec.items;
  quest.avg_transaction_size = spec.avg_transaction;
  quest.avg_pattern_size = spec.avg_pattern;
  quest.seed = spec.data_seed;
  Result<TransactionDatabase> all = bbsmine::GenerateQuest(quest);
  if (!all.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", all.status().ToString().c_str());
    std::exit(1);
  }
  Inputs inputs;
  for (size_t t = 0; t < all->size(); ++t) {
    if (t < spec.transactions) {
      inputs.base.Append(all->At(t).items);
    } else {
      inputs.insert_pool.push_back(all->At(t).items);
    }
  }
  return inputs;
}

namespace {

Itemset DrawItemset(const TransactionDatabase& db, bbsmine::Rng* rng) {
  const size_t size = 2 + rng->Uniform(2);
  Itemset items;
  while (items.size() < size) {
    const Itemset& txn = db.At(rng->Uniform(db.size())).items;
    if (txn.empty()) continue;
    const auto item = txn[rng->Uniform(txn.size())];
    if (std::find(items.begin(), items.end(), item) == items.end()) {
      items.push_back(item);
    }
  }
  std::sort(items.begin(), items.end());
  return items;
}

}  // namespace

std::vector<Itemset> DrawItemsets(const TransactionDatabase& db, uint64_t seed,
                                  size_t n) {
  bbsmine::Rng rng(seed);
  std::vector<Itemset> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(DrawItemset(db, &rng));
  return out;
}

RequestStream MakeRequestStream(const WorkloadSpec& spec, const Inputs& inputs,
                                uint64_t seed, double seconds) {
  RequestStream stream;
  for (int c = 0; c < spec.count_connections; ++c) {
    bbsmine::Rng rng(SubSeed(seed, spec.name, "count", c));
    const double mean_gap = spec.count_connections / spec.count_rps;
    std::vector<TimedItems> schedule;
    for (double due = rng.Exponential(mean_gap); due < seconds;
         due += rng.Exponential(mean_gap)) {
      schedule.push_back({due, DrawItemset(inputs.base, &rng)});
    }
    stream.count.push_back(std::move(schedule));
  }
  if (spec.insert_rps > 0) {
    bbsmine::Rng rng(SubSeed(seed, spec.name, "insert"));
    for (double due = rng.Exponential(1 / spec.insert_rps); due < seconds;
         due += rng.Exponential(1 / spec.insert_rps)) {
      stream.insert.push_back(
          {due, inputs.insert_pool[rng.Uniform(inputs.insert_pool.size())]});
    }
  }
  if (spec.shard_count_rps > 0) {
    bbsmine::Rng rng(SubSeed(seed, spec.name, "shard_count"));
    for (double due = rng.Exponential(1 / spec.shard_count_rps); due < seconds;
         due += rng.Exponential(1 / spec.shard_count_rps)) {
      stream.shard_count.push_back({due, DrawItemset(inputs.base, &rng)});
    }
  }
  if (spec.mine_period_ms > 0) {
    bbsmine::Rng rng(SubSeed(seed, spec.name, "mine"));
    const double period = spec.mine_period_ms / 1000;
    for (double due = period * rng.NextDouble(); due < seconds; due += period) {
      stream.mine.push_back(due);
    }
  }
  return stream;
}

std::string SerializeStream(const RequestStream& stream) {
  std::string out;
  char buf[64];
  auto add_items = [&](const char* tag, const TimedItems& op) {
    std::snprintf(buf, sizeof(buf), "%s %.9f", tag, op.due_s);
    out += buf;
    for (auto item : op.items) {
      out += ' ';
      out += std::to_string(item);
    }
    out += "\n";
  };
  for (size_t c = 0; c < stream.count.size(); ++c) {
    for (const TimedItems& op : stream.count[c]) {
      add_items(("COUNT" + std::to_string(c)).c_str(), op);
    }
  }
  for (const TimedItems& op : stream.insert) add_items("INSERT", op);
  for (const TimedItems& op : stream.shard_count) add_items("SHARDCOUNT", op);
  for (double due : stream.mine) {
    std::snprintf(buf, sizeof(buf), "MINE %.9f\n", due);
    out += buf;
  }
  return out;
}

}  // namespace perfbench
