#include "util/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "util/crc32.h"
#include "util/fault_injector.h"

namespace bbsmine {

namespace {

// Bytes FileWriter and FileReader buffer: large enough that a slice-sized
// piece costs a memcpy rather than a system call, small enough to stay out
// of the way on every thread that writes or loads a file.
constexpr size_t kBufferBytes = 64 << 10;

// Composes "<prefix>.<op>" and consults the fault registry. The string is
// only built when a spec is armed, so the production path stays one relaxed
// atomic load.
Status Fault(const char* prefix, const char* op) {
  if (!FaultInjector::Armed()) return Status::Ok();
  return FaultInjector::Hit((std::string(prefix) + "." + op).c_str());
}

Status FaultWrite(const char* prefix, size_t want, size_t* allowed) {
  *allowed = want;
  if (!FaultInjector::Armed()) return Status::Ok();
  return FaultInjector::HitWrite((std::string(prefix) + ".write").c_str(),
                                 want, allowed);
}

Status WriteAll(int fd, const char* data, size_t size,
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

// Best-effort fsync of the directory containing `path`, making the rename
// itself durable. Failures are ignored: some filesystems reject directory
// fsync with EINVAL, and the file data is already synced.
void SyncParentDirectory(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0               ? std::string("/")
                                                     : path.substr(0, slash);
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

FileWriter::FileWriter(std::string path, std::string tmp, int fd,
                       const WriteFileOptions& options)
    : path_(std::move(path)), tmp_(std::move(tmp)), fd_(fd),
      options_(options) {}

FileWriter::FileWriter(FileWriter&& other) noexcept
    : path_(std::move(other.path_)),
      tmp_(std::move(other.tmp_)),
      fd_(std::exchange(other.fd_, -1)),
      options_(other.options_),
      buffer_(std::move(other.buffer_)),
      buffered_(std::exchange(other.buffered_, 0)),
      size_(other.size_),
      crc_(other.crc_),
      status_(std::move(other.status_)) {}

FileWriter::~FileWriter() { Abandon(); }

Result<FileWriter> FileWriter::Open(const std::string& path,
                                    const WriteFileOptions& options) {
  // rename(2) over a device node would replace the node with a regular
  // file, so non-regular destinations are written in place; error
  // surfacing (ENOSPC on /dev/full) is unchanged.
  struct stat st;
  const bool in_place =
      ::lstat(path.c_str(), &st) == 0 && !S_ISREG(st.st_mode);
  std::string tmp = in_place ? std::string() : path + ".tmp";
  BBSMINE_RETURN_IF_ERROR(Fault(options.fault_point, "open"));
  const std::string& target = in_place ? path : tmp;
  int fd = in_place
               ? ::open(path.c_str(), O_WRONLY | O_CLOEXEC)
               : ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return StatusFromErrno("cannot open for writing: " + target);
  return FileWriter(path, std::move(tmp), fd, options);
}

Status FileWriter::Append(const void* data, size_t size) {
  if (!status_.ok()) return status_;
  if (fd_ < 0) return Status::Internal("append to a finished file: " + path_);
  const char* bytes = static_cast<const char*>(data);
  crc_ = Crc32(bytes, size, crc_);
  size_ += size;
  if (buffered_ + size > kBufferBytes) {
    BBSMINE_RETURN_IF_ERROR(Flush());
    if (size >= kBufferBytes) return WriteOut(bytes, size);
  }
  if (buffer_ == nullptr) buffer_ = std::make_unique<char[]>(kBufferBytes);
  std::memcpy(buffer_.get() + buffered_, bytes, size);
  buffered_ += size;
  return Status::Ok();
}

Status FileWriter::Flush() {
  if (buffered_ == 0) return Status::Ok();
  const size_t size = std::exchange(buffered_, 0);
  return WriteOut(buffer_.get(), size);
}

Status FileWriter::WriteOut(const char* data, size_t size) {
  size_t allowed = size;
  Status injected = FaultWrite(options_.fault_point, size, &allowed);
  status_ = WriteAll(fd_, data, allowed, tmp_.empty() ? path_ : tmp_);
  if (status_.ok() && !injected.ok()) status_ = injected;
  return status_;
}

Status FileWriter::Commit() {
  if (fd_ < 0) return Status::Internal("commit of a finished file: " + path_);
  if (!status_.ok()) {
    Abandon();
    return status_;
  }
  Status status = Flush();
  if (tmp_.empty()) {
    ::close(std::exchange(fd_, -1));
    return status;
  }
  if (status.ok() && options_.sync) {
    status = Fault(options_.fault_point, "fsync");
    if (status.ok() && ::fsync(fd_) != 0) {
      status = StatusFromErrno("fsync failed: " + tmp_);
    }
  }
  if (::close(std::exchange(fd_, -1)) != 0 && status.ok()) {
    status = StatusFromErrno("close failed: " + tmp_);
  }
  if (status.ok()) {
    status = Fault(options_.fault_point, "rename");
    if (status.ok() && ::rename(tmp_.c_str(), path_.c_str()) != 0) {
      status = StatusFromErrno("rename failed: " + tmp_ + " -> " + path_);
    }
  }
  if (!status.ok()) {
    ::unlink(tmp_.c_str());
    return status;
  }
  if (options_.sync) SyncParentDirectory(path_);
  return Status::Ok();
}

void FileWriter::Abandon() {
  if (fd_ < 0) return;
  ::close(std::exchange(fd_, -1));
  if (!tmp_.empty()) ::unlink(tmp_.c_str());
}

Status WriteBinaryFile(const std::string& path, std::string_view data,
                       const WriteFileOptions& options) {
  Result<FileWriter> out = FileWriter::Open(path, options);
  if (!out.ok()) return out.status();
  BBSMINE_RETURN_IF_ERROR(out->Append(data));
  return out->Commit();
}

Result<std::string> ReadBinaryFile(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "rb");
  if (fp == nullptr) {
    return StatusFromErrno("cannot open for reading: " + path);
  }
  std::string data;
  char buf[1 << 16];
  size_t n;
  errno = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0) {
    data.append(buf, n);
  }
  bool read_error = std::ferror(fp) != 0;
  int read_errno = errno;
  std::fclose(fp);
  if (read_error) {
    return StatusFromErrno(read_errno, "read error: " + path);
  }
  return data;
}

FileReader::FileReader(std::string path, int fd, uint64_t size)
    : path_(std::move(path)), fd_(fd), size_(size) {}

FileReader::FileReader(FileReader&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      size_(other.size_),
      offset_(other.offset_),
      buffer_(std::move(other.buffer_)),
      buffer_begin_(other.buffer_begin_),
      buffer_end_(other.buffer_end_) {}

FileReader::~FileReader() {
  if (fd_ >= 0) ::close(fd_);
}

Result<FileReader> FileReader::Open(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return StatusFromErrno("cannot open for reading: " + path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status = StatusFromErrno("cannot stat: " + path);
    ::close(fd);
    return status;
  }
  return FileReader(path, fd, static_cast<uint64_t>(st.st_size));
}

Status FileReader::Read(void* dst, size_t size, const char* what) {
  if (size > remaining()) {
    return Status::Corruption(std::string("truncated ") + what + " in " +
                              path_);
  }
  char* out = static_cast<char*>(dst);
  offset_ += size;
  while (size > 0) {
    if (buffer_begin_ == buffer_end_) {
      // Large pieces go straight to their destination; small ones refill
      // the buffer.
      char* target = out;
      size_t want = size;
      if (size < kBufferBytes) {
        if (buffer_ == nullptr) {
          buffer_ = std::make_unique<char[]>(kBufferBytes);
        }
        target = buffer_.get();
        want = kBufferBytes;
      }
      ssize_t n = ::read(fd_, target, want);
      if (n < 0) {
        if (errno == EINTR) continue;
        return StatusFromErrno("read error: " + path_);
      }
      if (n == 0) {
        return Status::Corruption(std::string("truncated ") + what + " in " +
                                  path_);
      }
      if (target == out) {
        out += n;
        size -= static_cast<size_t>(n);
        continue;
      }
      buffer_begin_ = 0;
      buffer_end_ = static_cast<size_t>(n);
    }
    const size_t take = std::min(size, buffer_end_ - buffer_begin_);
    std::memcpy(out, buffer_.get() + buffer_begin_, take);
    buffer_begin_ += take;
    out += take;
    size -= take;
  }
  return Status::Ok();
}

}  // namespace bbsmine
