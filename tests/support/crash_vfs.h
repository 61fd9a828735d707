// Storage helpers for the process-crash sweeps (docs/ROBUSTNESS.md
// §Crash-point injection).
//
// A crash sweep runs the service over an io::FaultyVfs armed to kill
// the process at mutating op k, for every k of an uninterrupted run,
// then recovers and demands the uninterrupted run's bytes. A process
// crash keeps everything already handed to the vfs, so the sweeps do
// not depend on fsync barriers: SweepVfs, the FaultyVfs's inner device,
// passes through to the real filesystem but skips fsync and directory
// fsync, which keeps per-record (WalFsync::kEveryAppend) sweeps cheap.
// It can also log every mutating op, indexed exactly as FaultyVfs
// counts them, so a test can name the op a crash point lands on.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/faulty_vfs.h"
#include "io/vfs.h"

namespace sybil::crashtest {

/// One mutating storage op, as FaultyVfs numbers them.
struct StorageOp {
  enum class Kind { kOpen, kWrite, kFsync, kRename, kTruncate, kDirSync };
  Kind kind = Kind::kOpen;
  std::string path;         // the file (rename: the destination)
  std::uint64_t bytes = 0;  // write size
  /// A write's first four bytes, little-endian (0 when shorter): a WAL
  /// frame leads with its record count.
  std::uint32_t lead = 0;
};

class SweepVfs final : public io::Vfs {
 public:
  /// Appends every mutating op to `log` from now on (null stops).
  void record(std::vector<StorageOp>* log) noexcept { log_ = log; }

  std::unique_ptr<io::VfsFile> open(const std::string& path,
                                    io::VfsMode mode) override {
    auto inner = io::real_vfs().open(path, mode);
    if (mode != io::VfsMode::kRead) note(StorageOp::Kind::kOpen, path);
    return std::make_unique<File>(this, std::move(inner), path);
  }
  void rename(const std::string& from, const std::string& to) override {
    io::real_vfs().rename(from, to);
    note(StorageOp::Kind::kRename, to);
  }
  bool remove(const std::string& path) noexcept override {
    return io::real_vfs().remove(path);
  }
  void truncate(const std::string& path, std::uint64_t size) override {
    io::real_vfs().truncate(path, size);
    note(StorageOp::Kind::kTruncate, path);
  }
  void sync_parent_dir(const std::string& path) override {
    note(StorageOp::Kind::kDirSync, path);
  }

 private:
  class File final : public io::VfsFile {
   public:
    File(SweepVfs* owner, std::unique_ptr<io::VfsFile> inner,
         std::string path)
        : owner_(owner), inner_(std::move(inner)), path_(std::move(path)) {}
    std::size_t read(void* buf, std::size_t n) override {
      return inner_->read(buf, n);
    }
    void write(const void* buf, std::size_t n) override {
      inner_->write(buf, n);
      std::uint32_t lead = 0;
      if (n >= sizeof(lead)) std::memcpy(&lead, buf, sizeof(lead));
      owner_->note(StorageOp::Kind::kWrite, path_, n, lead);
    }
    void fsync() override { owner_->note(StorageOp::Kind::kFsync, path_); }
    void close() override { inner_->close(); }

   private:
    SweepVfs* owner_;
    std::unique_ptr<io::VfsFile> inner_;
    std::string path_;
  };

  void note(StorageOp::Kind kind, const std::string& path,
            std::uint64_t bytes = 0, std::uint32_t lead = 0) {
    if (log_ != nullptr) log_->push_back({kind, path, bytes, lead});
  }

  std::vector<StorageOp>* log_ = nullptr;
};

/// A process-wide SweepVfs that never records: the default device of
/// the sweeps' recovered (and reference) runs.
inline SweepVfs& sweep_vfs() {
  static SweepVfs vfs;
  return vfs;
}

/// Arms `vfs` to kill the process at its mutating op `k`. The seed
/// varies with k, so crashing writes keep torn prefixes of many lengths.
inline void arm_crash(io::FaultyVfs& vfs, std::uint64_t k) {
  io::FaultConfig cfg;
  cfg.fail_from = k;
  cfg.fail_count = 1;
  cfg.fail_kind = io::VfsFaultKind::kProcessCrash;
  cfg.seed = k;
  vfs.configure(cfg);
}

}  // namespace sybil::crashtest
