// Deterministic fault-injecting Vfs for storage-robustness tests and
// chaos scenarios ([disk] manifest section, docs/FORMATS.md §9).
//
// Fault model:
//   - Byte budget (ENOSPC): writes succeed until a cumulative budget of
//     bytes is exhausted; the crossing write persists the allowed
//     prefix, then throws kNoSpace. Stays exhausted until reconfigured.
//   - Op window (EIO/ENOSPC/short write): mutating operations numbered
//     from 0 — open-for-write, write (per call), fsync, truncate,
//     rename, sync_parent_dir; ops in [fail_from, fail_from+fail_count)
//     throw `fail_kind`. kShortWrite persists a seeded prefix first.
//   - Power loss: at a chosen fsync ordinal (cut_at_fsync) or op
//     ordinal (cut_at_op) the "machine" dies: for every tracked
//     write-opened file, bytes written since its last successful fsync
//     are truncated away except a seeded prefix, the last surviving
//     unsynced byte may be bit-flipped (mirroring faults::tear_file_tail),
//     and renames not yet pinned by a directory fsync are undone when
//     the target did not pre-exist. All subsequent ops silently no-op
//     ("dead" mode) until reboot().
//   - Process crash: the op window armed with kProcessCrash kills the
//     process (kill -9) at its first op. Bytes already handed to the
//     vfs survive (they sit in the page cache) and renames already done
//     stand; a crashing write persists a seeded strict prefix — how a
//     torn WAL record arises — and any other crashing op never happens.
//     The device then runs dead until reboot(), so bytes still held in
//     a BufferedVfsFile die with the process. This is the service's one
//     crash model: every kill sweep crashes at op k.
//
// Determinism: same seed + same op sequence → same faults, byte for
// byte. `remove` is never injected (it is the cleanup arm of failure
// paths).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "io/vfs.h"

namespace sybil::io {

struct FaultConfig {
  static constexpr std::uint64_t kNever = ~0ull;

  /// Cumulative bytes writable before ENOSPC; kNever = unlimited.
  /// configure() resets the used count.
  std::uint64_t byte_budget = kNever;

  /// Mutating-op window throwing `fail_kind`: [fail_from, fail_from +
  /// fail_count). fail_from counts ops since construction (configure
  /// keeps the count). With kProcessCrash the window's first op kills
  /// the process (see the fault model above).
  std::uint64_t fail_from = kNever;
  std::uint64_t fail_count = 0;
  VfsFaultKind fail_kind = VfsFaultKind::kIoError;

  /// Power cut at the Nth fsync (file or directory), counted since
  /// construction; the cut lands *before* the fsync makes anything
  /// durable, and the fsync throws kPowerLoss.
  std::uint64_t cut_at_fsync = kNever;

  /// Power cut at the Nth mutating op (before the op takes effect).
  std::uint64_t cut_at_op = kNever;

  /// Seed for torn-tail decisions (kept-prefix length, bit flip).
  std::uint64_t seed = 0;
};

class FaultyVfs final : public Vfs {
 public:
  explicit FaultyVfs(Vfs* inner = nullptr)
      : inner_(inner != nullptr ? inner : &real_vfs()) {}

  /// Replaces the fault plan; resets byte-budget usage, keeps op/fsync
  /// counters and power tracking (counters describe the history of the
  /// device, not of one plan).
  void configure(const FaultConfig& config);

  /// Clears all pending faults (heals the disk). Power tracking and
  /// counters are kept; a dead device stays dead until reboot().
  void clear_faults();

  /// Declares everything written so far durable — tracked files become
  /// fully synced and pending renames are pinned — as if the device had
  /// quiesced (write cache flushed, directory metadata on media) before
  /// a fault plan begins. The chaos orchestrator settles a shard's vfs
  /// when arming a [disk] window so a power cut tears only state
  /// written *inside* the window, not the whole preceding run (which,
  /// under SYBIL_IO_FSYNC=0, never issued a single barrier).
  void settle();

  /// Simulates the power cut immediately (as opposed to arming it via
  /// cut_at_fsync/cut_at_op). Idempotent while dead.
  void cut_power();

  /// Brings a dead device back: ops pass through again. Fault plan is
  /// cleared; tracking restarts from the on-disk state.
  void reboot();

  bool dead() const;

  std::uint64_t ops() const;
  std::uint64_t fsyncs() const;
  std::uint64_t faults_injected() const;

  // Vfs interface.
  std::unique_ptr<VfsFile> open(const std::string& path,
                                VfsMode mode) override;
  void rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) noexcept override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void sync_parent_dir(const std::string& path) override;

 private:
  friend class FaultyVfsFile;

  struct Tracked {
    std::uint64_t synced_size = 0;   // durable as of last fsync
    std::uint64_t written_size = 0;  // current on-disk size
  };
  struct PendingRename {
    std::string from;
    std::string to;
    bool target_existed;
  };

  // All helpers expect mutex_ held.
  void account_op_locked(const char* what, const std::string& path);
  bool in_fail_window_locked(std::uint64_t op) const;
  void note_fsync_locked();
  void cut_power_locked();
  void note_fault_locked(VfsFaultKind kind);
  std::uint64_t next_rand_locked();

  Vfs* inner_;
  mutable std::mutex mutex_;
  FaultConfig config_{};
  std::uint64_t budget_used_ = 0;
  std::uint64_t op_count_ = 0;
  std::uint64_t fsync_count_ = 0;
  std::uint64_t faults_injected_ = 0;
  std::uint64_t rng_state_ = 0x9e3779b97f4a7c15ull;
  bool dead_ = false;
  std::map<std::string, Tracked> tracked_;
  std::vector<PendingRename> pending_renames_;
};

}  // namespace sybil::io
