// Helpers of the end-to-end service benchmark (perfbench.cpp): tail
// percentiles that report their sample count, in-memory spans with
// self-time attribution, the RSS baseline subtraction, the canonical
// flag and stream digests, a storage backend that counts what the
// service writes, and the machine fingerprint stamped on every result.
// Everything here observes the service from outside through its public
// API; nothing is compiled into src/.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/detector.h"
#include "io/vfs.h"
#include "osn/events.h"

namespace perfbench {

// ---- percentiles -------------------------------------------------------

/// A nearest-rank percentile with its evidence: how many samples it was
/// taken over and how many lie strictly above its rank.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// The tail rule: a percentile is reportable only with at least ten
  /// samples beyond it (p99 needs n >= 1000).
  bool reportable() const noexcept { return beyond >= 10; }
};

/// Nearest-rank percentile q in (0, 1] of `samples` (taken by value:
/// sorted in place). An empty input yields {0, 0, 0}.
Percentile percentile(std::vector<double> samples, double q);

/// Median of `values` (mean of the middle pair for even counts); 0 for
/// an empty input.
double median(std::vector<double> values);

// ---- spans -------------------------------------------------------------

/// One traced interval. `group` ties the spans of one batch together
/// (cycle << 32 | batch); `parent` is the id of the enclosing span, or
/// kNoParent for a root.
struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  std::uint64_t group = 0;
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Keeps spans in memory while enabled; open()/close() are no-ops (and
/// return kNoParent) while disabled, so untraced cycles pay one branch.
class SpanRecorder {
 public:
  void set_enabled(bool on) noexcept { enabled_ = on; }

  /// Opens a span under the innermost open one; returns its id.
  std::uint32_t open(std::string_view name, std::uint64_t group);
  /// Closes the innermost open span (must be `id`).
  void close(std::uint32_t id);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Spans recorded since `from` (an index into spans()).
  std::vector<Span> since(std::size_t from) const;

  /// One JSON object per line: id, parent, group, name, start_ns, end_ns.
  void write_jsonl(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span on a recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string_view name, std::uint64_t group)
      : rec_(rec), id_(rec.open(name, group)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::uint32_t id_;
};

/// Self time per span name, in seconds: each span's duration minus the
/// part of its interval covered by its direct children (overlapping
/// children are counted once).
std::map<std::string, double> self_seconds(const std::vector<Span>& spans);

/// Total duration per span name, in seconds.
std::map<std::string, double> total_seconds(const std::vector<Span>& spans);

// ---- memory --------------------------------------------------------------

/// Value in kB of a "Field:   123 kB" line of /proc/<pid>/status text;
/// -1 when absent.
long status_kb(std::string_view status_text, std::string_view field);

/// Peak growth over a baseline, in MB (never negative): how much the
/// measured phase added on top of what was resident before it began.
double rss_growth_mb(long peak_kb, long baseline_kb);

/// Current VmRSS / VmHWM of this process in kB (-1 if unreadable).
long current_rss_kb();
long peak_rss_kb();

/// Returns freed heap to the OS and restarts the peak-RSS watermark
/// (clear_refs 5), so the next peak_rss_kb() covers only what follows.
/// Returns false if the watermark could not be reset.
bool reset_peak_rss();

// ---- digests -------------------------------------------------------------

/// FNV-1a over (account, flagged_at, features) of the records sorted by
/// (flagged_at, account) — the canonical layout sybil_service prints,
/// independent of the order the records were drained in.
std::uint64_t flag_digest(std::vector<sybil::core::FlagRecord> records);

/// FNV-1a over every event's (type, actor, subject, time bits), so two
/// sides of a comparison can prove they ran the same inputs.
std::uint64_t stream_digest(const std::vector<sybil::osn::Event>& events);

// ---- storage ---------------------------------------------------------------

/// What the service wrote, by destination.
struct IoCounts {
  std::uint64_t wal_bytes = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t other_bytes = 0;
  std::uint64_t wal_fsyncs = 0;   // WAL barriers, segment dirs included
  std::uint64_t checkpoints = 0;  // generations committed (renames)

  std::uint64_t total_bytes() const noexcept {
    return wal_bytes + checkpoint_bytes + other_bytes;
  }
  IoCounts operator-(const IoCounts& o) const noexcept;
};

/// Passthrough to the real filesystem that counts bytes written and
/// durability barriers per destination ("/wal/" segments, "/ckpt/"
/// generations). Barriers are counted and NOT issued: the state root's
/// disk latency belongs to the machine, not to the program, and on tmpfs
/// they would cost nothing either. Counters are atomic (the service does
/// its I/O from the calling thread, but nothing here relies on that).
class CountingVfs final : public sybil::io::Vfs {
 public:
  std::unique_ptr<sybil::io::VfsFile> open(const std::string& path,
                                           sybil::io::VfsMode mode) override;
  void rename(const std::string& from, const std::string& to) override;
  bool remove(const std::string& path) noexcept override;
  void truncate(const std::string& path, std::uint64_t size) override;
  void sync_parent_dir(const std::string& path) override;

  IoCounts counts() const noexcept;

  enum Kind { kWal = 0, kCheckpoint = 1, kOther = 2 };
  static Kind classify(const std::string& path) noexcept;
  void add_bytes(Kind kind, std::uint64_t n) noexcept {
    bytes_[kind].fetch_add(n, std::memory_order_relaxed);
  }
  void add_fsync(Kind kind) noexcept {
    if (kind == kWal) wal_fsyncs_.fetch_add(1, std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> bytes_[3] = {};
  std::atomic<std::uint64_t> wal_fsyncs_{0};
  std::atomic<std::uint64_t> checkpoints_{0};
};

/// Commits the filesystem holding `path` (syncfs), so that work queued
/// by earlier cycles' deletions does not land inside a timed set-up.
void settle_filesystem(const std::string& path);

// ---- machine --------------------------------------------------------------

/// Moves the constructing thread round-robin over the CPUs it may run
/// on, one every `slice`, so that its work samples every vCPU of a host
/// whose vCPUs run at different speeds. Restores the original affinity
/// when destroyed. Does nothing with fewer than two CPUs.
class CpuRotator {
 public:
  explicit CpuRotator(std::chrono::milliseconds slice);
  ~CpuRotator();
  CpuRotator(const CpuRotator&) = delete;
  CpuRotator& operator=(const CpuRotator&) = delete;

 private:
  void run(std::chrono::milliseconds slice);
  void pin(const std::vector<int>& cpus) const;

  int tid_;
  std::vector<int> cpus_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::thread thread_;
};

/// Filesystem type name of `path` ("ext4", "tmpfs", "overlay", ... or the
/// hex magic when unknown).
std::string filesystem_type(const std::string& path);

/// One JSON object: cpu, nproc, compiler, build_type, sybil_threads and
/// the state root's filesystem.
std::string machine_fingerprint(const std::string& state_root);

// ---- clock ----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

}  // namespace perfbench
