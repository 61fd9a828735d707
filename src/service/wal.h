// Segmented write-ahead log for the supervised detection service.
//
// Every event OFFERED to the service — admitted or shed — is appended
// here before anything else happens to it, together with the admission
// verdict, so recovery can re-execute recorded decisions instead of
// re-deciding them: replay reconstructs the exact accounting (applied /
// deduped / dead-lettered / shed counters) of the uninterrupted run,
// not merely the same detector state.
//
// On-disk layout (docs/FORMATS.md §WAL has the byte-level spec and a
// worked hexdump). A segment file "wal-<base>.seg" is a 24-byte header
// followed by fixed-size 44-byte records:
//
//   header   magic "SYWL", endian tag, header size, format version,
//            shard id (v2; reserved zero in v1), base record index (u64)
//   record   crc32 (of the following 40 bytes) ·
//            index u64 · seq u64 · time f64 ·
//            actor u32 · subject u32 · type u32 · flags u32
//
// Fixed-size records make torn-tail detection trivial: a crash mid-
// append leaves either a partial trailing record (length not a multiple
// of 44) or a trailing record whose CRC fails; recovery truncates the
// segment back to its last valid record and reports both. Rotation is
// atomic in the container sense: a new segment is created, headered and
// (per policy) fsync'd before the writer moves to it; existing segments
// are never rewritten.
//
// Durability: WalFsync::kEveryAppend (the default, and what the
// crash-consistency proof assumes) fsyncs after every record; kOnRotate
// fsyncs only at segment boundaries (bounded loss window); kNever is
// for benches. Directory entries are fsync'd when a segment is created
// (io::Vfs::sync_parent_dir), so a machine crash cannot unlink a synced
// segment. All file I/O goes through the segment's io::Vfs (WalOptions::
// vfs), so storage faults — ENOSPC, EIO, short writes, power cuts and
// process crashes — are injectable per shard; see suspend_sync()/
// resume_sync() for how the supervisor rides out a disk-fault window
// without losing records.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "osn/events.h"

namespace sybil::service {

enum class WalFsync : std::uint32_t {
  kEveryAppend = 0,
  kOnRotate = 1,
  kNever = 2,
};

struct WalOptions {
  std::string dir;  // segment directory; created if absent
  /// Records per segment before rotation.
  std::uint64_t segment_records = 4096;
  WalFsync fsync = WalFsync::kEveryAppend;
  /// Stamped into every segment header (format v2) so a segment
  /// misplaced into another shard's directory is rejected at scan time
  /// instead of replaying the wrong partition's history. Single-instance
  /// services write shard 0.
  std::uint32_t shard_id = 0;

  /// Storage backend (null → io::default_vfs()). Fault-injection tests,
  /// the crash sweeps and the chaos orchestrator hand each shard its
  /// own FaultyVfs.
  io::Vfs* vfs = nullptr;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Admission-verdict bits stored in a record's flags word.
struct WalRecordFlags {
  static constexpr std::uint32_t kShed = 1u << 0;
  /// Bits 1-2: ServiceTier at decision time.
  static constexpr std::uint32_t kTierShift = 1;
  static constexpr std::uint32_t kTierMask = 3u << kTierShift;
  /// Bit 3: capacity shed (vs tier shed), for the shed.* breakdown.
  static constexpr std::uint32_t kCapacity = 1u << 3;
};

/// One logged offer, in memory.
struct WalRecord {
  std::uint64_t index = 0;  // global record index, 0-based
  std::uint64_t seq = 0;    // transport seq as offered (may be kAutoSeq)
  osn::Event event{};
  std::uint32_t flags = 0;

  bool shed() const noexcept { return (flags & WalRecordFlags::kShed) != 0; }
};

/// Appender. Always starts a fresh segment (recovery never appends to a
/// possibly-torn file); close() or destruction flushes, destruction
/// never throws.
class WalWriter {
 public:
  /// Opens a new segment whose base index is `next_index`. Throws
  /// io::SnapshotError(kWriteFailed) on I/O failure.
  WalWriter(const WalOptions& options, std::uint64_t next_index);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Appends one record; returns its global index. Rotates first when
  /// the current segment is full (unless sync is suspended — a degraded
  /// writer never rotates, so a segment may temporarily overfill).
  ///
  /// Storage faults: a thrown io::VfsError from rotation leaves the
  /// writer untouched (nothing appended, next_index() unchanged). A
  /// VfsError from the post-append flush/fsync means the record IS
  /// appended (next_index() advanced, bytes retained in the write
  /// buffer for a later retry) but NOT yet durable — the caller decides
  /// whether to degrade (suspend_sync) or fail loudly. While sync is
  /// suspended, append never throws on storage faults.
  std::uint64_t append(const osn::Event& e, std::uint64_t seq,
                       std::uint32_t flags);

  // ---- Group commit ----
  //
  // Under WalFsync::kEveryAppend each append pays an fsync — correct,
  // and the dominant cost of the offer path. When the caller already
  // holds a batch of offers (the supervisor pump), the appends between
  // begin_group() and commit_group() buffer in the segment file and
  // commit_group() issues ONE flush + fsync for all of them. The
  // durability boundary moves from each record to the group commit:
  // after commit_group() returns, every record of the group is exactly
  // as durable as per-record fsync would have made it; a crash inside
  // the group can lose the whole (unacknowledged) suffix, which
  // recovery already tolerates via strict-prefix replay. Rotation
  // mid-group still seals the outgoing segment. Other fsync policies
  // are unaffected apart from metrics.

  /// Starts a commit group. Throws std::logic_error if one is open.
  void begin_group();

  /// Ends the group: one flush+fsync covering every append since
  /// begin_group() (under kEveryAppend; other policies just close the
  /// group) — the batch's durability boundary. Returns records
  /// committed.
  std::uint64_t commit_group();

  /// Closes an open group WITHOUT the commit fsync (no-op when none
  /// is open). For exception unwinding only: the
  /// group's records stay buffered and unacknowledged, exactly as if
  /// the process had died before the commit — which is the durability
  /// state recovery already handles.
  void abort_group() noexcept {
    in_group_ = false;
    group_records_ = 0;
  }

  bool in_group() const noexcept { return in_group_; }

  /// Flushes (and per policy fsyncs) the current segment. Throws
  /// io::VfsError on storage failure (bytes stay retained for retry).
  void sync();

  // ---- Storage-degraded operation ----
  //
  // When the disk rejects writes (ENOSPC/EIO), the supervisor parks the
  // writer in suspended-sync mode: appends land only in the in-memory
  // write buffer (bounded by the supervisor's storage buffer policy),
  // rotation and every flush/fsync are skipped, and nothing can throw.
  // resume_sync() pushes the whole backlog and restores the configured
  // durability policy — all-or-nothing thanks to buffer retention.

  /// Enters suspended-sync mode. Idempotent.
  void suspend_sync() noexcept { sync_suspended_ = true; }

  /// Flushes the buffered backlog and (per policy) fsyncs, then leaves
  /// suspended-sync mode. Throws io::VfsError if the disk still rejects
  /// the backlog — the writer stays suspended and the unwritten suffix
  /// stays buffered.
  void resume_sync();

  bool sync_suspended() const noexcept { return sync_suspended_; }

  /// Records appended since the last successful flush to the OS — the
  /// occupancy of the degraded-mode buffer.
  std::uint64_t unsynced_records() const noexcept { return unsynced_records_; }

  std::uint64_t next_index() const noexcept { return next_index_; }
  std::uint64_t segments_opened() const noexcept { return segments_opened_; }

 private:
  void open_segment();
  void flush_buffer();      // file flush + unsynced reset
  void sync_per_policy();   // flush + fsync unless WalFsync::kNever

  WalOptions options_;
  io::Vfs* vfs_ = nullptr;
  std::unique_ptr<io::BufferedVfsFile> file_;
  std::uint64_t next_index_;
  std::uint64_t segment_base_ = 0;
  std::uint64_t segments_opened_ = 0;
  std::string segment_path_;
  bool in_group_ = false;
  bool sync_suspended_ = false;
  std::uint64_t group_records_ = 0;
  std::uint64_t unsynced_records_ = 0;
};

/// What a recovery scan found and did.
struct WalScanReport {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_scanned = 0;   // valid records seen (all segments)
  std::uint64_t records_returned = 0;  // records with index >= from_index
  /// Whole records dropped because they sat at or behind a corrupt
  /// record (strict prefix semantics: nothing after the first bad CRC
  /// in a segment is trusted).
  std::uint64_t records_truncated = 0;
  /// Segments whose tail was healed (file truncated in place back to
  /// its last valid record).
  std::uint64_t torn_tails_healed = 0;
  /// Highest valid record index seen + 1 (0 when the log is empty):
  /// where the next WalWriter continues.
  std::uint64_t next_index = 0;
};

/// `expected_shard` value that disables the shard-identity check.
inline constexpr std::uint32_t kWalAnyShard = ~std::uint32_t{0};

/// Scans `dir` in segment order, validates every record CRC, heals torn
/// tails in place, and returns the valid records with index >=
/// `from_index` in index order. Segments entirely below `from_index`
/// are skipped without reading their records. Throws io::SnapshotError
/// on unreadable directories; corrupt *content* never throws — it is
/// truncated and reported (a WAL's job is to survive exactly that).
/// A v2 segment header carrying a shard id other than `expected_shard`
/// throws SnapshotError(kFormatViolation): a foreign shard's log is
/// misconfiguration, not corruption, and must never be replayed here
/// (v1 headers predate shard identity and are exempt). Reads and tail
/// healing go through `vfs` (null → io::default_vfs()).
std::vector<WalRecord> scan_wal(const std::string& dir,
                                std::uint64_t from_index,
                                WalScanReport& report,
                                std::uint32_t expected_shard = kWalAnyShard,
                                io::Vfs* vfs = nullptr);

/// Deletes segments whose entire record range lies below `index` (all
/// retained checkpoints are at or above it). Returns segments removed.
std::uint64_t prune_wal(const std::string& dir, std::uint64_t index,
                        io::Vfs* vfs = nullptr);

}  // namespace sybil::service
