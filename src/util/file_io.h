// File read/write helpers with full error propagation and atomic
// replacement semantics.
//
// The persistence layers write through FileWriter, which streams a file
// into place in bounded pieces, so no image is ever held whole in memory
// (WriteBinaryFile is one append through it). Loaders read through
// FileReader, which hands out exact-size pieces through a bounded buffer.
// Two classic write failure modes are handled here so callers never have
// to:
//
//  * Late write errors. A bare fopen/fwrite pair may buffer everything and
//    report success, with ENOSPC only surfacing at fflush/fclose. Every
//    step — open, write, fsync, close, rename — is checked and surfaced as
//    Status::IoError carrying the errno text.
//
//  * Destroying the previous good file. Opening the destination with
//    O_TRUNC means a crash or full disk mid-write leaves a truncated,
//    CRC-invalid file where a valid one used to be. FileWriter therefore
//    writes `<path>.tmp` in the same directory, fsyncs it, and rename(2)s
//    it over the target: readers see either the complete old file or the
//    complete new one, never a torn hybrid.
//
// Every step consults a FaultInjector point ("<prefix>.open",
// "<prefix>.write" once per write(2), "<prefix>.fsync", "<prefix>.rename" —
// prefix "file" by default, overridable per writer so e.g. checkpoint
// writes expose "checkpoint.rename"), which is how the robustness tests
// force ENOSPC, short writes, and crashes at exact boundaries.

#ifndef BBSMINE_UTIL_FILE_IO_H_
#define BBSMINE_UTIL_FILE_IO_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace bbsmine {

struct WriteFileOptions {
  /// fsync the temp file before rename (and best-effort fsync the parent
  /// directory after). Disable only for data whose loss on power failure is
  /// acceptable; kill -9 durability does not need it.
  bool sync = true;
  /// FaultInjector point prefix for this write ("file" -> "file.open",
  /// "file.write", "file.fsync", "file.rename").
  const char* fault_point = "file";
};

/// Streams one file into place atomically: appends go to `<path>.tmp`
/// through a bounded buffer, and Commit fsyncs it and renames it over
/// `path`. A writer destroyed (or failed) before Commit unlinks the temp
/// file and leaves `path` as it was. Non-regular destinations (/dev/null,
/// /dev/full) are written in place: no temp file, fsync or rename.
class FileWriter {
 public:
  /// Opens `<path>.tmp` for writing (fault point "<prefix>.open").
  static Result<FileWriter> Open(const std::string& path,
                                 const WriteFileOptions& options =
                                     WriteFileOptions());

  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&&) = delete;
  ~FileWriter();

  /// Appends `size` bytes. Pieces accumulate in the buffer, and each full
  /// buffer (or a piece at least that large) goes out in one write(2),
  /// fault point "<prefix>.write". After a failure every later call fails.
  Status Append(const void* data, size_t size);
  Status Append(std::string_view data) {
    return Append(data.data(), data.size());
  }

  /// Flushes, fsyncs (when options.sync), closes and renames the temp file
  /// over the destination. The writer is finished afterwards, whatever the
  /// outcome.
  Status Commit();

  /// CRC-32 (util/crc32.h) of every byte appended so far.
  uint32_t crc() const { return crc_; }

  /// Bytes appended so far.
  uint64_t size() const { return size_; }

 private:
  FileWriter(std::string path, std::string tmp, int fd,
             const WriteFileOptions& options);

  Status Flush();
  Status WriteOut(const char* data, size_t size);
  /// Closes the descriptor and unlinks the temp file (failure cleanup).
  void Abandon();

  std::string path_;
  std::string tmp_;  // empty for in-place (non-regular) destinations
  int fd_ = -1;
  WriteFileOptions options_;
  std::unique_ptr<char[]> buffer_;
  size_t buffered_ = 0;
  uint64_t size_ = 0;
  uint32_t crc_ = 0;
  Status status_;
};

/// Writes `data` to `path` atomically: one FileWriter append, then Commit.
/// Returns IoError if any step fails; a failed write never leaves a
/// partial file at `path` (the temp file is unlinked on error).
Status WriteBinaryFile(const std::string& path, std::string_view data,
                       const WriteFileOptions& options = WriteFileOptions());

/// Reads the whole file at `path`. Returns IoError if the file cannot be
/// opened or a read fails.
Result<std::string> ReadBinaryFile(const std::string& path);

/// Sequential reads of one file in exact-size pieces through a bounded
/// buffer: the streaming counterpart of ReadBinaryFile for loaders that
/// must never hold a whole file.
class FileReader {
 public:
  /// Opens `path` and records its size.
  static Result<FileReader> Open(const std::string& path);

  FileReader(FileReader&& other) noexcept;
  FileReader& operator=(FileReader&&) = delete;
  ~FileReader();

  /// File size at Open.
  uint64_t size() const { return size_; }

  /// Bytes not yet read.
  uint64_t remaining() const { return size_ - offset_; }

  /// Reads exactly `size` bytes into `dst`. Corruption when the file ends
  /// first ("truncated <what> in <path>"), IoError when a read fails.
  Status Read(void* dst, size_t size, const char* what = "data");

  const std::string& path() const { return path_; }

 private:
  FileReader(std::string path, int fd, uint64_t size);

  std::string path_;
  int fd_ = -1;
  uint64_t size_ = 0;
  uint64_t offset_ = 0;  // bytes handed out by Read
  std::unique_ptr<char[]> buffer_;
  size_t buffer_begin_ = 0;
  size_t buffer_end_ = 0;
};

}  // namespace bbsmine

#endif  // BBSMINE_UTIL_FILE_IO_H_
