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
// Durability has one owner. append() only encodes a record into the
// segment's retained write buffer; sync() does all of the writer's
// storage I/O; and the caller decides *when* by calling commit() at
// each durability boundary — after one offer, after one batch, or not
// at all while the disk is faulted (the supervisor's storage-degraded
// mode). WalFsync::kEveryAppend (the default, and what the
// crash-consistency proof assumes) makes every commit an fsync;
// kNever is for benches. Under kEveryAppend, directory entries are
// fsync'd when a segment is created (io::Vfs::sync_parent_dir), so a
// machine crash cannot unlink a synced segment. All file I/O goes through the segment's
// io::Vfs (WalOptions::vfs), so storage faults — ENOSPC, EIO, short
// writes, power cuts and process crashes — are injectable per shard.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "osn/events.h"

namespace sybil::service {

/// Values are stable: bench_micro_perf's BM_WalAppend takes them as
/// arguments.
enum class WalFsync : std::uint32_t {
  kEveryAppend = 0,  // every commit() with records pending fsyncs
  kNever = 2,        // flush at rotation only
};

struct WalOptions {
  std::string dir;  // segment directory; created if absent
  /// Records per segment before rotation. Rotation happens at a
  /// commit, so a sealed segment holds at least this many.
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
/// possibly-torn file); destruction best-effort flushes and never
/// throws.
class WalWriter {
 public:
  /// Opens a new segment whose base index is `next_index`. Throws
  /// io::SnapshotError(kWriteFailed) on I/O failure.
  WalWriter(const WalOptions& options, std::uint64_t next_index);
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Encodes one record into the retained write buffer and returns its
  /// global index. Issues no I/O: it never rotates, never flushes and
  /// never throws a storage fault. The record is appended (next_index()
  /// advanced) but not durable until a sync().
  std::uint64_t append(const osn::Event& e, std::uint64_t seq,
                       std::uint32_t flags);

  /// The durability boundary after one offer or one batch: sync()s when
  /// the policy is kEveryAppend or the segment is full. Issues no I/O
  /// when nothing is pending. Returns the records it made durable.
  /// Throws like sync().
  std::uint64_t commit();

  /// All of the writer's storage I/O: flushes the buffer, fsyncs unless
  /// the policy is kNever, then rotates once the segment holds at least
  /// segment_records records. A no-op when nothing is pending. Throws
  /// io::VfsError on a storage fault: the unwritten suffix stays
  /// retained and every record stays pending for the next sync() (a
  /// failed rotation leaves the writer on the current segment).
  void sync();

  /// Records appended since the last successful sync() — the occupancy
  /// of the supervisor's storage-degraded buffer.
  std::uint64_t unsynced_records() const noexcept { return unsynced_records_; }

  std::uint64_t next_index() const noexcept { return next_index_; }
  std::uint64_t segments_opened() const noexcept { return segments_opened_; }

 private:
  void open_segment();

  WalOptions options_;
  io::Vfs* vfs_ = nullptr;
  std::unique_ptr<io::BufferedVfsFile> file_;
  std::uint64_t next_index_;
  std::uint64_t segment_base_ = 0;
  std::uint64_t segments_opened_ = 0;
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

/// Deletes segments whose entire record range lies below `index` (every
/// retained checkpoint replays from at or above it). Returns segments
/// removed.
std::uint64_t prune_wal(const std::string& dir, std::uint64_t index,
                        io::Vfs* vfs = nullptr);

}  // namespace sybil::service
