// Injectable storage abstraction (in the spirit of SQLite's test VFS):
// every durable path in this tree — WAL segments, checkpoint containers,
// graph/dataset snapshots — performs its file I/O through a `Vfs` so
// tests can substitute a deterministic fault-injecting implementation
// (io/faulty_vfs.h) and prove that ENOSPC, EIO, short writes, and
// power loss at any point leave every state root recoverable.
//
// Contracts:
//   - VfsFile::write is all-or-throw: on VfsError, `bytes_written()`
//     reports how many bytes of *this call* reached the file, so a
//     caller holding the buffer can retry exactly the unwritten suffix.
//   - VfsFile::close surfaces close-time write-back failures as typed
//     errors instead of swallowing them (the classic fclose bug).
//   - Vfs::remove is best-effort and never fault-injected: it is the
//     cleanup arm of failure paths and must not itself fail them.
//
// The process-wide default (`default_vfs`) is the real passthrough
// unless a test installs another via `set_default_vfs`/`ScopedDefaultVfs`;
// durable paths also accept an explicit `Vfs*` for per-shard injection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/error.h"

namespace sybil::io {

/// The storage failure taxonomy FaultyVfs can inject and real backends
/// report (mapped from errno: ENOSPC → kNoSpace, anything else → kIoError).
enum class VfsFaultKind {
  kNoSpace,     // disk full (ENOSPC / budget exhausted)
  kIoError,     // generic I/O failure (EIO, bad sector, ...)
  kShortWrite,  // a write persisted a strict prefix, then failed
  kPowerLoss,   // simulated machine power cut at an fsync barrier
  kProcessCrash,  // simulated process death (kill -9) at a storage op
};

const char* to_string(VfsFaultKind kind) noexcept;

/// The one rule for fatal storage faults: power loss and process crash
/// mean the process is (simulated) dead, so no in-process retry or
/// degradation may absorb them — callers rethrow. Every other kind is
/// a disk refusing writes, which the storage-degraded tier rides out.
constexpr bool is_fatal(VfsFaultKind kind) noexcept {
  return kind == VfsFaultKind::kPowerLoss ||
         kind == VfsFaultKind::kProcessCrash;
}

/// Typed storage error. Derives from SnapshotError so existing catch
/// sites (and tests pinning SnapshotErrorCode) keep working, while the
/// service layer can distinguish storage faults and their kind.
class VfsError : public SnapshotError {
 public:
  VfsError(VfsFaultKind kind, SnapshotErrorCode code,
           const std::string& detail, std::size_t bytes_written = 0)
      : SnapshotError(code, std::string("storage [") + to_string(kind) +
                                "]: " + detail),
        kind_(kind),
        bytes_written_(bytes_written) {}

  VfsError(VfsFaultKind kind, const std::string& detail,
           std::size_t bytes_written = 0)
      : VfsError(kind, SnapshotErrorCode::kWriteFailed, detail,
                 bytes_written) {}

  VfsFaultKind kind() const noexcept { return kind_; }

  /// Bytes of the failing write() call that reached the file before the
  /// error (0 for non-write operations). The retryable suffix starts here.
  std::size_t bytes_written() const noexcept { return bytes_written_; }

 private:
  VfsFaultKind kind_;
  std::size_t bytes_written_;
};

enum class VfsMode {
  kRead,      // existing file, read-only
  kTruncate,  // create or truncate, write
  kAppend,    // create or append, write
};

/// An open file handle. All methods throw VfsError on failure except
/// where noted; the destructor best-effort closes without throwing.
class VfsFile {
 public:
  virtual ~VfsFile() = default;

  /// Reads up to `n` bytes; returns the count actually read. A short
  /// read only happens at end-of-file; mid-file errors throw.
  virtual std::size_t read(void* buf, std::size_t n) = 0;

  /// Writes all `n` bytes or throws. On VfsError, err.bytes_written()
  /// is the number of bytes of this call that reached the file.
  virtual void write(const void* buf, std::size_t n) = 0;

  /// Durability barrier. Throws VfsError on failure.
  virtual void fsync() = 0;

  /// Flushes and closes, surfacing close-time write failures as
  /// VfsError. Idempotent: a second close is a no-op.
  virtual void close() = 0;
};

/// The storage interface durable paths program against.
class Vfs {
 public:
  virtual ~Vfs() = default;

  /// Opens `path` in `mode`. Open failures throw VfsError carrying
  /// SnapshotErrorCode::kOpenFailed.
  virtual std::unique_ptr<VfsFile> open(const std::string& path,
                                        VfsMode mode) = 0;

  /// Atomically renames `from` over `to`. Throws VfsError on failure.
  virtual void rename(const std::string& from, const std::string& to) = 0;

  /// Best-effort unlink; never fault-injected, never throws. Returns
  /// whether the file was removed.
  virtual bool remove(const std::string& path) noexcept = 0;

  /// Truncates `path` to `size` bytes. Throws VfsError on failure.
  virtual void truncate(const std::string& path, std::uint64_t size) = 0;

  /// fsyncs the parent directory of `path` so a preceding rename/create
  /// is durable. Throws VfsError on failure.
  virtual void sync_parent_dir(const std::string& path) = 0;
};

/// The real passthrough implementation (POSIX fds where available,
/// stdio otherwise). fsync/sync_parent_dir issue the real syscalls
/// unconditionally — policy (the SYBIL_IO_FSYNC knob, WalFsync, a
/// SyncMode) lives at the call sites, exactly as before the VFS
/// existed, so the knob's committed semantics are unchanged.
Vfs& real_vfs();

/// Process-wide default used when a durable path is not handed an
/// explicit Vfs. Never null (falls back to real_vfs()).
Vfs* default_vfs() noexcept;

/// Installs `vfs` as the default (null restores the real one). Returns
/// the previous default. Not thread-safe against concurrent I/O —
/// intended for test setup.
Vfs* set_default_vfs(Vfs* vfs) noexcept;

/// RAII default-vfs swap for tests.
class ScopedDefaultVfs {
 public:
  explicit ScopedDefaultVfs(Vfs* vfs) : prev_(set_default_vfs(vfs)) {}
  ~ScopedDefaultVfs() { set_default_vfs(prev_); }
  ScopedDefaultVfs(const ScopedDefaultVfs&) = delete;
  ScopedDefaultVfs& operator=(const ScopedDefaultVfs&) = delete;

 private:
  Vfs* prev_;
};

/// Write-buffering wrapper with *retention*: write() appends to an
/// in-memory buffer and never fails; flush() pushes the whole buffer to
/// the inner file and, on VfsError, erases exactly the prefix that
/// reached the file before rethrowing — the unwritten suffix stays
/// buffered, so no record is ever torn by the buffered path and a later
/// retry resumes precisely where the fault struck. This is the degraded-
/// tier buffer of the storage-degraded service (docs/ROBUSTNESS.md).
class BufferedVfsFile {
 public:
  explicit BufferedVfsFile(std::unique_ptr<VfsFile> inner)
      : inner_(std::move(inner)) {}
  ~BufferedVfsFile();
  BufferedVfsFile(const BufferedVfsFile&) = delete;
  BufferedVfsFile& operator=(const BufferedVfsFile&) = delete;

  /// Appends to the buffer; never fails.
  void write(const void* buf, std::size_t n);

  /// Writes the buffered bytes to the inner file. On VfsError the
  /// successfully-written prefix is dropped from the buffer and the
  /// error rethrown; the remainder is retried by the next flush.
  void flush();

  /// flush() + inner fsync.
  void fsync();

  /// flush() + inner close (throws on either failing).
  void close();

  /// Drops buffered bytes without writing them (abort paths).
  void discard() noexcept { buffer_.clear(); }

  std::size_t buffered() const noexcept { return buffer_.size(); }

 private:
  std::unique_ptr<VfsFile> inner_;
  std::vector<unsigned char> buffer_;
  bool closed_ = false;
};

}  // namespace sybil::io
