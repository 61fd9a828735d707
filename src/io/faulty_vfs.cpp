#include "io/faulty_vfs.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "core/metrics/instrument.h"

namespace sybil::io {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Flips one seeded bit in the byte at `at` — the torn-write half of the
// power-loss model, mirroring faults::tear_file_tail (which this layer
// cannot call: sybil_vfs sits below the faults library).
void flip_bit_at(const std::string& path, std::uint64_t at,
                 unsigned bit) noexcept {
  std::FILE* f = std::fopen(path.c_str(), "r+b");
  if (f == nullptr) return;
  if (std::fseek(f, static_cast<long>(at), SEEK_SET) == 0) {
    const int c = std::fgetc(f);
    if (c != EOF && std::fseek(f, static_cast<long>(at), SEEK_SET) == 0) {
      std::fputc(c ^ (1 << (bit & 7)), f);
    }
  }
  std::fclose(f);
}

}  // namespace

/// File handle that consults the owning FaultyVfs on every operation.
/// `inner` is null when the device was already dead at open time.
class FaultyVfsFile final : public VfsFile {
 public:
  FaultyVfsFile(FaultyVfs* owner, std::unique_ptr<VfsFile> inner,
                std::string path, bool writable)
      : owner_(owner),
        inner_(std::move(inner)),
        path_(std::move(path)),
        writable_(writable) {}

  std::size_t read(void* buf, std::size_t n) override {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (owner_->dead_ || inner_ == nullptr) return 0;
    return inner_->read(buf, n);
  }

  void write(const void* buf, std::size_t n) override {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (owner_->dead_ || inner_ == nullptr) return;
    const FaultConfig& cfg = owner_->config_;
    const std::uint64_t op = owner_->op_count_++;
    if (op == cfg.cut_at_op) {
      owner_->cut_power_locked();
      throw VfsError(VfsFaultKind::kPowerLoss,
                     "power cut at write: " + path_);
    }
    const bool in_window = owner_->in_fail_window_locked(op);
    // Short writes and process crashes both land a seeded strict prefix.
    const bool torn = in_window &&
                      (cfg.fail_kind == VfsFaultKind::kShortWrite ||
                       cfg.fail_kind == VfsFaultKind::kProcessCrash);
    if (in_window && !torn) {
      owner_->note_fault_locked(cfg.fail_kind);
      throw VfsError(cfg.fail_kind, "write failed: " + path_, 0);
    }
    // Byte budget: the crossing write persists the allowed prefix.
    std::uint64_t allowed = n;
    bool budget_hit = false;
    if (cfg.byte_budget != FaultConfig::kNever) {
      const std::uint64_t remaining =
          owner_->budget_used_ >= cfg.byte_budget
              ? 0
              : cfg.byte_budget - owner_->budget_used_;
      if (remaining < n) {
        allowed = remaining;
        budget_hit = true;
      }
    }
    std::uint64_t prefix = allowed;
    if (torn && allowed > 0) {
      prefix = owner_->next_rand_locked() % allowed;  // strict prefix
    }
    if (prefix > 0) {
      inner_->write(buf, static_cast<std::size_t>(prefix));
      owner_->budget_used_ += prefix;
      if (writable_) {
        owner_->tracked_[path_].written_size += prefix;
      }
    }
    if (torn) {
      const VfsFaultKind kind = cfg.fail_kind;
      owner_->note_fault_locked(kind);
      throw VfsError(kind,
                     std::string(kind == VfsFaultKind::kProcessCrash
                                     ? "process crash at write: "
                                     : "short write: ") +
                         path_,
                     static_cast<std::size_t>(prefix));
    }
    if (budget_hit) {
      owner_->budget_used_ = cfg.byte_budget;
      ++owner_->faults_injected_;
      SYBIL_METRIC_COUNT("io.vfs.faults", 1);
      throw VfsError(VfsFaultKind::kNoSpace, "disk full: " + path_,
                     static_cast<std::size_t>(prefix));
    }
  }

  void fsync() override {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (owner_->dead_ || inner_ == nullptr) return;
    owner_->account_op_locked("fsync", path_);
    owner_->note_fsync_locked();
    inner_->fsync();
    if (writable_) {
      auto& t = owner_->tracked_[path_];
      t.synced_size = t.written_size;
    }
  }

  void close() override {
    std::lock_guard<std::mutex> lock(owner_->mutex_);
    if (closed_) return;
    closed_ = true;
    if (owner_->dead_ || inner_ == nullptr) return;
    inner_->close();
  }

 private:
  FaultyVfs* owner_;
  std::unique_ptr<VfsFile> inner_;
  std::string path_;
  bool writable_;
  bool closed_ = false;
};

void FaultyVfs::configure(const FaultConfig& config) {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = config;
  budget_used_ = 0;
  rng_state_ = config.seed;
}

void FaultyVfs::clear_faults() {
  std::lock_guard<std::mutex> lock(mutex_);
  config_ = FaultConfig{};
  budget_used_ = 0;
}

void FaultyVfs::settle() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [path, t] : tracked_) t.synced_size = t.written_size;
  pending_renames_.clear();
}

void FaultyVfs::cut_power() {
  std::lock_guard<std::mutex> lock(mutex_);
  cut_power_locked();
}

void FaultyVfs::reboot() {
  std::lock_guard<std::mutex> lock(mutex_);
  dead_ = false;
  config_ = FaultConfig{};
  budget_used_ = 0;
  // Tracking restarts from the on-disk state: whatever survived the cut
  // is the new durable baseline.
  tracked_.clear();
  pending_renames_.clear();
}

bool FaultyVfs::dead() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dead_;
}

std::uint64_t FaultyVfs::ops() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return op_count_;
}

std::uint64_t FaultyVfs::fsyncs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fsync_count_;
}

std::uint64_t FaultyVfs::faults_injected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return faults_injected_;
}

std::unique_ptr<VfsFile> FaultyVfs::open(const std::string& path,
                                         VfsMode mode) {
  std::lock_guard<std::mutex> lock(mutex_);
  const bool writable = mode != VfsMode::kRead;
  if (dead_) {
    return std::make_unique<FaultyVfsFile>(this, nullptr, path, writable);
  }
  if (writable) {
    // Open-for-write is a mutating op; open failures carry kOpenFailed.
    const FaultConfig& cfg = config_;
    const std::uint64_t op = op_count_++;
    if (op == cfg.cut_at_op) {
      cut_power_locked();
      throw VfsError(VfsFaultKind::kPowerLoss,
                     SnapshotErrorCode::kOpenFailed,
                     "power cut at open: " + path);
    }
    if (in_fail_window_locked(op)) {
      const VfsFaultKind kind = cfg.fail_kind == VfsFaultKind::kShortWrite
                                    ? VfsFaultKind::kIoError
                                    : cfg.fail_kind;
      note_fault_locked(kind);  // a crash here: the file never existed
      throw VfsError(kind, SnapshotErrorCode::kOpenFailed,
                     "cannot open " + path);
    }
  }
  auto inner = inner_->open(path, mode);
  if (writable) {
    Tracked t;
    if (mode == VfsMode::kAppend) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(path, ec);
      t.written_size = ec ? 0 : size;
      t.synced_size = t.written_size;  // pre-existing bytes assumed durable
    }
    tracked_[path] = t;
  }
  return std::make_unique<FaultyVfsFile>(this, std::move(inner), path,
                                         writable);
}

void FaultyVfs::rename(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return;
  account_op_locked("rename", from);
  std::error_code ec;
  const bool target_existed = std::filesystem::exists(to, ec) && !ec;
  inner_->rename(from, to);
  // The rename lives in directory metadata: un-durable until the parent
  // directory is fsync'd, so a power cut before that undoes it.
  pending_renames_.push_back({from, to, target_existed});
  const auto it = tracked_.find(from);
  if (it != tracked_.end()) {
    tracked_[to] = it->second;
    tracked_.erase(it);
  }
}

bool FaultyVfs::remove(const std::string& path) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return false;
  tracked_.erase(path);
  return inner_->remove(path);
}

void FaultyVfs::truncate(const std::string& path, std::uint64_t size) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return;
  account_op_locked("truncate", path);
  inner_->truncate(path, size);
  const auto it = tracked_.find(path);
  if (it != tracked_.end()) {
    it->second.written_size = std::min(it->second.written_size, size);
    it->second.synced_size = std::min(it->second.synced_size, size);
  }
}

void FaultyVfs::sync_parent_dir(const std::string& path) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (dead_) return;
  account_op_locked("dirsync", path);
  note_fsync_locked();
  inner_->sync_parent_dir(path);
  // Directory barrier: renames published under this directory are now
  // durable. (Single-directory state roots in this tree, so pinning all
  // pending renames is exact.)
  pending_renames_.clear();
}

void FaultyVfs::account_op_locked(const char* what, const std::string& path) {
  const std::uint64_t op = op_count_++;
  if (op == config_.cut_at_op) {
    cut_power_locked();
    throw VfsError(VfsFaultKind::kPowerLoss,
                   std::string("power cut at ") + what + " " + path);
  }
  if (in_fail_window_locked(op)) {
    const VfsFaultKind kind = config_.fail_kind == VfsFaultKind::kShortWrite
                                  ? VfsFaultKind::kIoError
                                  : config_.fail_kind;
    note_fault_locked(kind);  // a crash here: the op never took effect
    throw VfsError(kind, std::string(what) + " " + path + " failed");
  }
}

bool FaultyVfs::in_fail_window_locked(std::uint64_t op) const {
  return op >= config_.fail_from && op - config_.fail_from < config_.fail_count;
}

void FaultyVfs::note_fault_locked(VfsFaultKind kind) {
  ++faults_injected_;
  SYBIL_METRIC_COUNT("io.vfs.faults", 1);
  // kill -9: nothing is torn or undone — what reached the vfs stays, as
  // it would in the page cache — but nothing reaches it from here on.
  if (kind == VfsFaultKind::kProcessCrash) dead_ = true;
}

void FaultyVfs::note_fsync_locked() {
  if (fsync_count_ == config_.cut_at_fsync) {
    ++fsync_count_;
    cut_power_locked();
    throw VfsError(VfsFaultKind::kPowerLoss, "power cut at fsync barrier");
  }
  ++fsync_count_;
}

void FaultyVfs::cut_power_locked() {
  if (dead_) return;
  dead_ = true;
  ++faults_injected_;
  SYBIL_METRIC_COUNT("io.vfs.power_cuts", 1);
  // Unpin renames the directory never fsync'd: a fresh target vanishes
  // (rename undone); an overwritten target keeps the new inode (the old
  // content is unrecoverable either way — state roots here never
  // overwrite a live checkpoint name, so this branch is theoretical).
  for (auto it = pending_renames_.rbegin(); it != pending_renames_.rend();
       ++it) {
    if (it->target_existed) continue;
    try {
      inner_->rename(it->to, it->from);
    } catch (...) {
    }
    const auto t = tracked_.find(it->to);
    if (t != tracked_.end()) {
      tracked_[it->from] = t->second;
      tracked_.erase(t);
    }
  }
  pending_renames_.clear();
  // Tear every file back toward its last fsync barrier: keep the synced
  // prefix plus a seeded slice of the unsynced tail, optionally flipping
  // one bit in the last surviving unsynced byte (torn sector).
  for (auto& [path, t] : tracked_) {
    if (t.written_size <= t.synced_size) continue;
    const std::uint64_t unsynced = t.written_size - t.synced_size;
    const std::uint64_t keep =
        t.synced_size + next_rand_locked() % unsynced;  // < written_size
    try {
      inner_->truncate(path, keep);
    } catch (...) {
      continue;
    }
    if (keep > t.synced_size && (next_rand_locked() & 1) != 0) {
      flip_bit_at(path, keep - 1,
                  static_cast<unsigned>(next_rand_locked() & 7));
    }
    t.written_size = keep;
    t.synced_size = std::min(t.synced_size, keep);
  }
}

std::uint64_t FaultyVfs::next_rand_locked() { return splitmix64(rng_state_); }

}  // namespace sybil::io
