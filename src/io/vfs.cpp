#include "io/vfs.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "core/metrics/instrument.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#define SYBIL_VFS_POSIX 1
#endif

namespace sybil::io {

const char* to_string(VfsFaultKind kind) noexcept {
  switch (kind) {
    case VfsFaultKind::kNoSpace:
      return "enospc";
    case VfsFaultKind::kIoError:
      return "eio";
    case VfsFaultKind::kShortWrite:
      return "short-write";
    case VfsFaultKind::kPowerLoss:
      return "power-loss";
    case VfsFaultKind::kProcessCrash:
      return "process-crash";
  }
  return "unknown";
}

namespace {

VfsFaultKind kind_from_errno(int err) noexcept {
#if defined(ENOSPC)
  if (err == ENOSPC) return VfsFaultKind::kNoSpace;
#endif
  (void)err;
  return VfsFaultKind::kIoError;
}

#ifdef SYBIL_VFS_POSIX

class PosixVfsFile final : public VfsFile {
 public:
  PosixVfsFile(int fd, std::string path) : fd_(fd), path_(std::move(path)) {}

  ~PosixVfsFile() override {
    if (fd_ >= 0) ::close(fd_);
  }

  std::size_t read(void* buf, std::size_t n) override {
    auto* at = static_cast<unsigned char*>(buf);
    std::size_t total = 0;
    while (total < n) {
      const ::ssize_t got = ::read(fd_, at + total, n - total);
      if (got == 0) break;  // EOF
      if (got < 0) {
        if (errno == EINTR) continue;
        throw VfsError(kind_from_errno(errno),
                       SnapshotErrorCode::kTruncated,
                       "read failed: " + path_);
      }
      total += static_cast<std::size_t>(got);
    }
    SYBIL_METRIC_COUNT("io.vfs.reads", 1);
    return total;
  }

  void write(const void* buf, std::size_t n) override {
    const auto* at = static_cast<const unsigned char*>(buf);
    std::size_t total = 0;
    while (total < n) {
      const ::ssize_t put = ::write(fd_, at + total, n - total);
      if (put < 0) {
        if (errno == EINTR) continue;
        throw VfsError(kind_from_errno(errno), "write failed: " + path_,
                       total);
      }
      total += static_cast<std::size_t>(put);
    }
    SYBIL_METRIC_COUNT("io.vfs.writes", 1);
    SYBIL_METRIC_COUNT("io.vfs.bytes_written", n);
  }

  void fsync() override {
    if (::fsync(fd_) != 0) {
      throw VfsError(kind_from_errno(errno), "fsync failed: " + path_);
    }
    SYBIL_METRIC_COUNT("io.vfs.fsyncs", 1);
  }

  void close() override {
    if (fd_ < 0) return;
    const int fd = fd_;
    fd_ = -1;
    if (::close(fd) != 0) {
      throw VfsError(kind_from_errno(errno), "close failed: " + path_);
    }
  }

 private:
  int fd_;
  std::string path_;
};

#else  // !SYBIL_VFS_POSIX — stdio fallback

class StdioVfsFile final : public VfsFile {
 public:
  StdioVfsFile(std::FILE* f, std::string path)
      : file_(f), path_(std::move(path)) {}

  ~StdioVfsFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  std::size_t read(void* buf, std::size_t n) override {
    const std::size_t got = std::fread(buf, 1, n, file_);
    if (got < n && std::ferror(file_)) {
      throw VfsError(VfsFaultKind::kIoError, SnapshotErrorCode::kTruncated,
                     "read failed: " + path_);
    }
    SYBIL_METRIC_COUNT("io.vfs.reads", 1);
    return got;
  }

  void write(const void* buf, std::size_t n) override {
    const std::size_t put = std::fwrite(buf, 1, n, file_);
    if (put != n) {
      throw VfsError(VfsFaultKind::kIoError, "write failed: " + path_, put);
    }
    SYBIL_METRIC_COUNT("io.vfs.writes", 1);
    SYBIL_METRIC_COUNT("io.vfs.bytes_written", n);
  }

  void fsync() override {
    if (std::fflush(file_) != 0) {
      throw VfsError(VfsFaultKind::kIoError, "flush failed: " + path_);
    }
    SYBIL_METRIC_COUNT("io.vfs.fsyncs", 1);
  }

  void close() override {
    if (file_ == nullptr) return;
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      throw VfsError(VfsFaultKind::kIoError, "close failed: " + path_);
    }
  }

 private:
  std::FILE* file_;
  std::string path_;
};

#endif  // SYBIL_VFS_POSIX

class RealVfs final : public Vfs {
 public:
  std::unique_ptr<VfsFile> open(const std::string& path,
                                VfsMode mode) override {
    SYBIL_METRIC_COUNT("io.vfs.opens", 1);
#ifdef SYBIL_VFS_POSIX
    int flags = 0;
    switch (mode) {
      case VfsMode::kRead:
        flags = O_RDONLY;
        break;
      case VfsMode::kTruncate:
        flags = O_WRONLY | O_CREAT | O_TRUNC;
        break;
      case VfsMode::kAppend:
        flags = O_WRONLY | O_CREAT | O_APPEND;
        break;
    }
    const int fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
      throw VfsError(kind_from_errno(errno), SnapshotErrorCode::kOpenFailed,
                     "cannot open " + path);
    }
    return std::make_unique<PosixVfsFile>(fd, path);
#else
    const char* m = mode == VfsMode::kRead
                        ? "rb"
                        : (mode == VfsMode::kTruncate ? "wb" : "ab");
    std::FILE* f = std::fopen(path.c_str(), m);
    if (f == nullptr) {
      throw VfsError(VfsFaultKind::kIoError, SnapshotErrorCode::kOpenFailed,
                     "cannot open " + path);
    }
    return std::make_unique<StdioVfsFile>(f, path);
#endif
  }

  void rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      throw VfsError(kind_from_errno(errno),
                     "rename failed: " + from + " -> " + to);
    }
    SYBIL_METRIC_COUNT("io.vfs.renames", 1);
  }

  bool remove(const std::string& path) noexcept override {
    return std::remove(path.c_str()) == 0;
  }

  void truncate(const std::string& path, std::uint64_t size) override {
#ifdef SYBIL_VFS_POSIX
    if (::truncate(path.c_str(), static_cast<::off_t>(size)) != 0) {
      throw VfsError(kind_from_errno(errno), "truncate failed: " + path);
    }
#else
    // No portable truncate-to-size in stdio; rewrite the prefix.
    std::FILE* in = std::fopen(path.c_str(), "rb");
    if (in == nullptr) {
      throw VfsError(VfsFaultKind::kIoError, "truncate failed: " + path);
    }
    std::vector<unsigned char> keep(static_cast<std::size_t>(size));
    const std::size_t got = std::fread(keep.data(), 1, keep.size(), in);
    std::fclose(in);
    std::FILE* out = std::fopen(path.c_str(), "wb");
    if (out == nullptr) {
      throw VfsError(VfsFaultKind::kIoError, "truncate failed: " + path);
    }
    const bool ok = got == 0 || std::fwrite(keep.data(), 1, got, out) == got;
    if (std::fclose(out) != 0 || !ok || got != keep.size()) {
      throw VfsError(VfsFaultKind::kIoError, "truncate failed: " + path);
    }
#endif
  }

  void sync_parent_dir(const std::string& path) override {
#ifdef SYBIL_VFS_POSIX
    const std::size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? std::string(".")
                                : path.substr(0, slash == 0 ? 1 : slash);
    const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      throw VfsError(kind_from_errno(errno),
                     "directory open failed for " + path);
    }
    const bool ok = ::fsync(fd) == 0;
    ::close(fd);
    if (!ok) {
      throw VfsError(kind_from_errno(errno),
                     "directory fsync failed for " + path);
    }
    SYBIL_METRIC_COUNT("io.vfs.fsyncs", 1);
#else
    (void)path;
#endif
  }
};

std::atomic<Vfs*>& default_slot() noexcept {
  static std::atomic<Vfs*> slot{nullptr};
  return slot;
}

}  // namespace

Vfs& real_vfs() {
  static RealVfs vfs;
  return vfs;
}

Vfs* default_vfs() noexcept {
  Vfs* v = default_slot().load(std::memory_order_acquire);
  return v != nullptr ? v : &real_vfs();
}

Vfs* set_default_vfs(Vfs* vfs) noexcept {
  Vfs* prev = default_slot().exchange(vfs, std::memory_order_acq_rel);
  return prev != nullptr ? prev : &real_vfs();
}

BufferedVfsFile::~BufferedVfsFile() {
  if (closed_) return;
  try {
    flush();
  } catch (...) {
    // Destructor is best-effort; retained bytes are lost with the object.
  }
  try {
    inner_->close();
  } catch (...) {
  }
}

void BufferedVfsFile::write(const void* buf, std::size_t n) {
  const auto* at = static_cast<const unsigned char*>(buf);
  buffer_.insert(buffer_.end(), at, at + n);
}

void BufferedVfsFile::flush() {
  if (buffer_.empty()) return;
  try {
    inner_->write(buffer_.data(), buffer_.size());
  } catch (const VfsError& err) {
    // Retention: drop exactly the prefix that landed; the suffix stays
    // buffered so the next flush resumes where the fault struck.
    const std::size_t done = err.bytes_written() <= buffer_.size()
                                 ? err.bytes_written()
                                 : buffer_.size();
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(done));
    throw;
  }
  buffer_.clear();
}

void BufferedVfsFile::fsync() {
  flush();
  inner_->fsync();
}

void BufferedVfsFile::close() {
  if (closed_) return;
  flush();
  inner_->close();
  closed_ = true;
}

}  // namespace sybil::io
