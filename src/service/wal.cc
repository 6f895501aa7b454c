#include "service/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/crc32.h"
#include "util/fault_injector.h"

namespace bbsmine::service {

namespace {

constexpr char kWalMagic[8] = {'B', 'B', 'S', 'W', 'A', 'L', '0', '1'};
constexpr uint32_t kWalVersion = 1;
// magic + u32 version + u32 crc + u64 base_txn_count.
constexpr uint64_t kWalHeaderBytes = 8 + 4 + 4 + 8;
// Sanity bound on one record: matches the wire-frame cap — no legitimate
// INSERT batch serializes larger, so a bigger length field is bit rot.
constexpr uint32_t kMaxWalRecordBytes = 16u << 20;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

uint32_t LoadU32(const char* p) {
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

uint64_t LoadU64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(p[i])) << (8 * i);
  }
  return v;
}

std::string HeaderBytes(uint64_t base_txn_count) {
  std::string payload;
  AppendU64(&payload, base_txn_count);
  std::string header;
  header.append(kWalMagic, sizeof(kWalMagic));
  AppendU32(&header, kWalVersion);
  AppendU32(&header, Crc32(payload));
  header += payload;
  return header;
}

/// Validates the 24-byte header; fills `base` on success.
Status ParseHeader(const char* data, size_t size, const std::string& path,
                   uint64_t* base) {
  if (size < kWalHeaderBytes) {
    return Status::Corruption("WAL header truncated in " + path);
  }
  if (std::memcmp(data, kWalMagic, sizeof(kWalMagic)) != 0) {
    return Status::Corruption("bad WAL magic in " + path);
  }
  uint32_t version = LoadU32(data + 8);
  if (version != kWalVersion) {
    return Status::Corruption("unsupported WAL version " +
                              std::to_string(version) + " in " + path);
  }
  uint32_t crc = LoadU32(data + 12);
  if (Crc32(data + 16, 8) != crc) {
    return Status::Corruption("WAL header checksum mismatch in " + path);
  }
  *base = LoadU64(data + 16);
  return Status::Ok();
}

// Record buffer capacity WriteAheadLog::Append keeps between appends.
constexpr size_t kKeptRecordBytes = 1 << 20;

// Frames `batch` as one record in `record`, reusing its capacity: the
// length and CRC placeholders are patched once the payload is in place.
void SerializeRecord(const std::vector<Itemset>& batch, std::string* record) {
  record->assign(8, '\0');
  AppendU32(record, static_cast<uint32_t>(batch.size()));
  for (const Itemset& items : batch) {
    AppendU32(record, static_cast<uint32_t>(items.size()));
    for (ItemId item : items) AppendU32(record, item);
  }
  const std::string_view payload = std::string_view(*record).substr(8);
  const uint32_t header[2] = {static_cast<uint32_t>(payload.size()),
                              Crc32(payload)};
  for (int i = 0; i < 8; ++i) {
    (*record)[i] = static_cast<char>(header[i / 4] >> (8 * (i % 4)));
  }
}

Status ParseRecordPayload(const char* data, size_t size,
                          const std::string& path,
                          std::vector<Itemset>* out) {
  size_t pos = 0;
  if (size < 4) return Status::Corruption("WAL record too short in " + path);
  uint32_t txn_count = LoadU32(data);
  pos += 4;
  out->clear();
  out->reserve(txn_count);
  for (uint32_t t = 0; t < txn_count; ++t) {
    if (pos + 4 > size) {
      return Status::Corruption("WAL record payload truncated in " + path);
    }
    uint32_t item_count = LoadU32(data + pos);
    pos += 4;
    if (pos + 4ull * item_count > size) {
      return Status::Corruption("WAL record payload truncated in " + path);
    }
    Itemset items(item_count);
    for (uint32_t i = 0; i < item_count; ++i) {
      items[i] = LoadU32(data + pos);
      pos += 4;
    }
    out->push_back(std::move(items));
  }
  if (pos != size) {
    return Status::Corruption("trailing bytes in WAL record in " + path);
  }
  return Status::Ok();
}

Status WriteAllFd(int fd, const char* data, size_t size,
                  const std::string& context) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno("write failed: " + context);
    }
    if (n == 0) return Status::IoError("zero-byte write: " + context);
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

}  // namespace

Status ParseFsyncSpec(const std::string& spec, WalOptions* options) {
  if (spec == "always") {
    options->policy = FsyncPolicy::kAlways;
    return Status::Ok();
  }
  if (spec == "none") {
    options->policy = FsyncPolicy::kNone;
    return Status::Ok();
  }
  if (spec.rfind("every=", 0) == 0) {
    uint64_t n = 0;
    for (size_t i = 6; i < spec.size(); ++i) {
      char c = spec[i];
      if (c < '0' || c > '9') {
        n = 0;
        break;
      }
      n = n * 10 + static_cast<uint64_t>(c - '0');
    }
    if (n == 0) {
      return Status::InvalidArgument("--fsync every=N requires N >= 1");
    }
    options->policy = FsyncPolicy::kEveryN;
    options->sync_every = n;
    return Status::Ok();
  }
  return Status::InvalidArgument(
      "--fsync must be always, none, or every=N (got \"" + spec + "\")");
}

std::string FsyncPolicyName(const WalOptions& options) {
  switch (options.policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kNone:
      return "none";
    case FsyncPolicy::kEveryN:
      return "every:" + std::to_string(options.sync_every);
  }
  return "unknown";
}

Result<WriteAheadLog> WriteAheadLog::Create(const std::string& path,
                                            uint64_t base_txn_count,
                                            const WalOptions& options) {
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("wal.open"));
  // Header goes to a temp file renamed into place, so a crash during
  // Create/Truncate leaves either the previous log or a complete new one —
  // a WAL file never exists with a partial header.
  const std::string tmp = path + ".tmp";
  int raw = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                   0644);
  if (raw < 0) {
    return StatusFromErrno("cannot create WAL: " + tmp);
  }
  OwnedFd fd(raw);
  std::string header = HeaderBytes(base_txn_count);
  Status status = WriteAllFd(fd.get(), header.data(), header.size(), tmp);
  if (status.ok() && ::fsync(fd.get()) != 0) {
    status = StatusFromErrno("fsync failed: " + tmp);
  }
  if (status.ok() && ::rename(tmp.c_str(), path.c_str()) != 0) {
    status = StatusFromErrno("rename failed: " + tmp + " -> " + path);
  }
  if (!status.ok()) {
    ::unlink(tmp.c_str());
    return status;
  }

  WriteAheadLog wal;
  wal.path_ = path;
  wal.options_ = options;
  wal.fd_ = std::move(fd);  // same inode: the rename moved it under `path`
  wal.base_txn_count_ = base_txn_count;
  wal.offset_ = header.size();
  return wal;
}

Result<WriteAheadLog> WriteAheadLog::OpenForAppend(const std::string& path,
                                                   const WalOptions& options) {
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("wal.open"));
  int raw = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return StatusFromErrno("cannot open WAL: " + path);
  }
  OwnedFd fd(raw);
  char header[kWalHeaderBytes];
  ssize_t got = ::pread(fd.get(), header, sizeof(header), 0);
  if (got < 0) return StatusFromErrno("cannot read WAL header: " + path);
  uint64_t base = 0;
  BBSMINE_RETURN_IF_ERROR(
      ParseHeader(header, static_cast<size_t>(got), path, &base));
  off_t end = ::lseek(fd.get(), 0, SEEK_END);
  if (end < 0) return StatusFromErrno("cannot seek WAL: " + path);

  WriteAheadLog wal;
  wal.path_ = path;
  wal.options_ = options;
  wal.fd_ = std::move(fd);
  wal.base_txn_count_ = base;
  wal.offset_ = static_cast<uint64_t>(end);
  return wal;
}

Result<uint64_t> WriteAheadLog::ReadBaseTxnCount(const std::string& path) {
  int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return StatusFromErrno("cannot open WAL: " + path);
  }
  OwnedFd fd(raw);
  char header[kWalHeaderBytes];
  ssize_t got = ::pread(fd.get(), header, sizeof(header), 0);
  if (got < 0) return StatusFromErrno("cannot read WAL header: " + path);
  uint64_t base = 0;
  BBSMINE_RETURN_IF_ERROR(
      ParseHeader(header, static_cast<size_t>(got), path, &base));
  return base;
}

Result<WriteAheadLog::ReplayStats> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(const std::vector<Itemset>&)>& apply) {
  int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return StatusFromErrno("cannot open WAL: " + path);
  }
  OwnedFd fd(raw);
  std::string file;
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd.get(), buf, sizeof(buf))) > 0) {
      file.append(buf, static_cast<size_t>(n));
    }
    if (n < 0) return StatusFromErrno("read error: " + path);
  }
  fd.Reset();

  ReplayStats stats;
  BBSMINE_RETURN_IF_ERROR(
      ParseHeader(file.data(), file.size(), path, &stats.base_txn_count));

  size_t pos = kWalHeaderBytes;
  size_t good_end = pos;
  std::vector<Itemset> batch;
  while (pos < file.size()) {
    size_t remaining = file.size() - pos;
    if (remaining < 8) break;  // torn frame header at EOF
    uint32_t len = LoadU32(file.data() + pos);
    uint32_t crc = LoadU32(file.data() + pos + 4);
    if (len > kMaxWalRecordBytes) {
      // No writer produces a record this large; the length field itself is
      // rotten, and everything after it is unreachable. Corruption, not a
      // torn tail — truncating here could drop acknowledged records.
      return Status::Corruption("absurd WAL record length at offset " +
                                std::to_string(pos) + " in " + path);
    }
    if (len > remaining - 8) break;  // record extends past EOF: torn append
    const char* payload = file.data() + pos + 8;
    if (Crc32(payload, static_cast<size_t>(len)) != crc) {
      if (pos + 8 + len == file.size()) break;  // bad final record: torn
      return Status::Corruption("WAL record checksum mismatch at offset " +
                                std::to_string(pos) + " in " + path);
    }
    // CRC-valid but structurally malformed payloads are writer bugs or
    // deliberate tampering, never torn appends: always Corruption.
    BBSMINE_RETURN_IF_ERROR(ParseRecordPayload(payload, len, path, &batch));
    BBSMINE_RETURN_IF_ERROR(apply(batch));
    stats.records += 1;
    stats.transactions += batch.size();
    pos += 8 + len;
    good_end = pos;
  }

  if (good_end < file.size()) {
    stats.torn_tail_bytes = file.size() - good_end;
    stats.tail_truncated = true;
    if (::truncate(path.c_str(), static_cast<off_t>(good_end)) != 0) {
      return StatusFromErrno("cannot truncate torn WAL tail: " + path);
    }
  }
  return stats;
}

Result<WriteAheadLog::StreamChunk> WriteAheadLog::ReadRecordsFrom(
    const std::string& path, uint64_t from_txn, uint64_t max_bytes,
    StreamCursor* cursor) {
  int raw = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (raw < 0) {
    if (errno == ENOENT) return Status::NotFound("no WAL at " + path);
    return StatusFromErrno("cannot open WAL: " + path);
  }
  OwnedFd fd(raw);
  struct stat st;
  if (::fstat(fd.get(), &st) != 0) {
    return StatusFromErrno("cannot stat WAL: " + path);
  }
  const uint64_t file_size = static_cast<uint64_t>(st.st_size);

  // The header alone decides whether a cached cursor is still valid: a
  // checkpoint Truncate atomically replaces the whole file with a fresh
  // header (new base), which is exactly what invalidates cached offsets.
  char header[kWalHeaderBytes];
  size_t header_read = 0;
  while (header_read < sizeof(header)) {
    ssize_t n = ::read(fd.get(), header + header_read,
                       sizeof(header) - header_read);
    if (n < 0) return StatusFromErrno("read error: " + path);
    if (n == 0) break;
    header_read += static_cast<size_t>(n);
  }
  uint64_t base = 0;
  BBSMINE_RETURN_IF_ERROR(ParseHeader(header, header_read, path, &base));
  if (from_txn < base) {
    return Status::InvalidArgument(
        "replication watermark " + std::to_string(from_txn) +
        " precedes WAL base " + std::to_string(base) + " in " + path +
        " (records already checkpointed away; bootstrap required)");
  }

  // Scan start: right after the header, or — when the caller's cursor
  // matches this file generation and watermark — the cached offset, so a
  // steady-state tail poll reads only bytes appended since the last call.
  uint64_t start = kWalHeaderBytes;
  uint64_t txn = base;  // first transaction of the record at `start`
  if (cursor != nullptr && cursor->base_txn == base &&
      cursor->txn == from_txn && cursor->offset >= kWalHeaderBytes &&
      cursor->offset <= file_size) {
    start = cursor->offset;
    txn = from_txn;
  }
  if (::lseek(fd.get(), static_cast<off_t>(start), SEEK_SET) < 0) {
    return StatusFromErrno("seek error: " + path);
  }
  std::string file;  // log bytes from `start` to EOF
  {
    char buf[1 << 16];
    ssize_t n;
    while ((n = ::read(fd.get(), buf, sizeof(buf))) > 0) {
      file.append(buf, static_cast<size_t>(n));
    }
    if (n < 0) return StatusFromErrno("read error: " + path);
  }
  fd.Reset();

  StreamChunk chunk;
  chunk.start_txn = from_txn;
  size_t pos = 0;  // into `file`; absolute offset = start + pos
  // Resume point for the next call: set past the last record shipped, or
  // (when nothing ships) left at the watermark's own record.
  uint64_t next_txn = from_txn;
  uint64_t next_offset = 0;
  std::vector<Itemset> batch;
  while (pos < file.size()) {
    size_t remaining = file.size() - pos;
    if (remaining < 8) break;  // torn frame header: the writer is mid-append
    uint32_t len = LoadU32(file.data() + pos);
    uint32_t crc = LoadU32(file.data() + pos + 4);
    if (len > kMaxWalRecordBytes) {
      return Status::Corruption("absurd WAL record length at offset " +
                                std::to_string(start + pos) + " in " + path);
    }
    if (len > remaining - 8) break;  // record extends past EOF: torn append
    const char* payload = file.data() + pos + 8;
    if (Crc32(payload, static_cast<size_t>(len)) != crc) {
      if (pos + 8 + len == file.size()) break;  // bad final record: torn
      return Status::Corruption("WAL record checksum mismatch at offset " +
                                std::to_string(start + pos) + " in " + path);
    }
    BBSMINE_RETURN_IF_ERROR(ParseRecordPayload(payload, len, path, &batch));
    uint64_t record_end = txn + batch.size();
    if (from_txn > txn && from_txn < record_end) {
      return Status::Corruption(
          "replication watermark " + std::to_string(from_txn) +
          " splits a WAL record covering [" + std::to_string(txn) + ", " +
          std::to_string(record_end) + ") in " + path);
    }
    if (txn >= from_txn) {
      chunk.bytes_remaining += 8 + static_cast<uint64_t>(len);
      // Collect until the byte cap — but never return empty-handed when a
      // record is available: one oversized record must still ship.
      if (chunk.records > 0 && chunk.data.size() + 8 + len > max_bytes) {
        // Past the cap; keep scanning only to learn log_end_txn.
      } else {
        chunk.data.append(file.data() + pos, 8 + static_cast<size_t>(len));
        chunk.records += 1;
        chunk.transactions += batch.size();
        next_txn = record_end;
        next_offset = start + pos + 8 + len;
      }
    }
    txn = record_end;
    pos += 8 + len;
  }
  chunk.log_end_txn = txn;
  if (from_txn > txn) {
    return Status::InvalidArgument(
        "replication watermark " + std::to_string(from_txn) +
        " lies past WAL end " + std::to_string(txn) + " in " + path);
  }
  if (cursor != nullptr) {
    cursor->base_txn = base;
    if (next_offset != 0) {
      cursor->txn = next_txn;
      cursor->offset = next_offset;
    } else {
      // Nothing shipped, so from_txn sits at the end of the valid prefix
      // (anything earlier would have shipped at least one record); the
      // scan stopped exactly there.
      cursor->txn = from_txn;
      cursor->offset = start + pos;
    }
  }
  return chunk;
}

Status WriteAheadLog::DecodeRecords(const std::string& data,
                                    std::vector<std::vector<Itemset>>* batches) {
  batches->clear();
  size_t pos = 0;
  while (pos < data.size()) {
    size_t remaining = data.size() - pos;
    if (remaining < 8) {
      return Status::Corruption("partial WAL record frame in stream chunk");
    }
    uint32_t len = LoadU32(data.data() + pos);
    uint32_t crc = LoadU32(data.data() + pos + 4);
    if (len > kMaxWalRecordBytes) {
      return Status::Corruption("absurd WAL record length in stream chunk");
    }
    if (len > remaining - 8) {
      return Status::Corruption("truncated WAL record in stream chunk");
    }
    const char* payload = data.data() + pos + 8;
    if (Crc32(payload, static_cast<size_t>(len)) != crc) {
      return Status::Corruption("WAL record checksum mismatch in stream chunk");
    }
    std::vector<Itemset> batch;
    BBSMINE_RETURN_IF_ERROR(
        ParseRecordPayload(payload, len, "stream chunk", &batch));
    batches->push_back(std::move(batch));
    pos += 8 + len;
  }
  return Status::Ok();
}

Status WriteAheadLog::Append(const std::vector<Itemset>& batch) {
  if (broken_) {
    return Status::IoError("WAL is broken after a failed append: " + path_);
  }
  SerializeRecord(batch, &record_);
  const size_t size = record_.size();
  size_t allowed = size;
  Status injected = FaultInjector::HitWrite("wal.append", size, &allowed);
  Status status = WriteAllFd(fd_.get(), record_.data(), allowed, path_);
  if (status.ok() && !injected.ok()) status = injected;
  // The buffer is kept for the next batch unless this one was unusually
  // large.
  if (record_.capacity() > kKeptRecordBytes) std::string().swap(record_);
  if (!status.ok()) {
    // Restore the pre-append length AND the write position — a partial
    // write advanced the fd cursor, and truncation alone would make the
    // next append land past a hole of zeros. If the repair fails the file
    // may hold a partial frame; mark the log broken so no later append
    // writes after garbage. (Recovery would still be correct — the partial
    // frame is a torn tail — but the records after it would be
    // unreachable.)
    if (::ftruncate(fd_.get(), static_cast<off_t>(offset_)) != 0 ||
        ::lseek(fd_.get(), static_cast<off_t>(offset_), SEEK_SET) < 0) {
      broken_ = true;
    }
    return status;
  }
  offset_ += size;
  appended_records_ += 1;
  appended_bytes_ += size;
  return SyncPerPolicy();
}

Status WriteAheadLog::SyncPerPolicy() {
  switch (options_.policy) {
    case FsyncPolicy::kAlways:
      return Sync();
    case FsyncPolicy::kEveryN:
      if (++appends_since_sync_ >= options_.sync_every) return Sync();
      return Status::Ok();
    case FsyncPolicy::kNone:
      return Status::Ok();
  }
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("wal.sync"));
  if (::fsync(fd_.get()) != 0) {
    return StatusFromErrno("WAL fsync failed: " + path_);
  }
  appends_since_sync_ = 0;
  ++fsyncs_;
  return Status::Ok();
}

Status WriteAheadLog::Truncate(uint64_t base_txn_count) {
  BBSMINE_RETURN_IF_ERROR(FaultInjector::Hit("wal.truncate"));
  Result<WriteAheadLog> fresh = Create(path_, base_txn_count, options_);
  if (!fresh.ok()) return fresh.status();
  uint64_t total_bytes = appended_bytes_;
  uint64_t total_records = appended_records_;
  uint64_t total_fsyncs = fsyncs_;
  *this = std::move(*fresh);
  // Lifetime counters survive the restart; they feed the service report.
  appended_bytes_ = total_bytes;
  appended_records_ = total_records;
  fsyncs_ = total_fsyncs;
  return Status::Ok();
}

}  // namespace bbsmine::service
