// Segmented write-ahead log for the supervised detection service.
//
// Every event OFFERED to the service — admitted or shed — is appended
// here before anything else happens to it, together with the admission
// verdict, so recovery can re-execute recorded decisions instead of
// re-deciding them: replay reconstructs the exact accounting (applied /
// deduped / dead-lettered / shed counters) of the uninterrupted run,
// not merely the same detector state. Recovery scans the log once
// (scan_wal) and reads the admitted records it left unpumped back
// through a WalCursor as they are drained, so it never holds the log.
//
// On-disk layout (docs/FORMATS.md §8 has the byte-level spec and a
// worked hexdump). A segment file "wal-<base>.seg" is a 36-byte header
// followed by frames, one per sync():
//
//   header   magic "SYWL", endian tag, header size, format version 3,
//            shard id, base record index (u64), clock (f64: the stamp
//            of record base - 1, or -inf), crc32 of those 32 bytes
//   frame    record count u32 · body length u32 · first index u64 ·
//            records · crc32 of everything before it in the frame
//   record   head byte (type: 3 bits, flags: 4 bits, clock bit) ·
//            [raw type byte when the type code is 7] ·
//            varint seq delta · time f64 · actor u32 · subject u32 ·
//            [stamp code, when the clock bit is clear: 0 = the previous
//            record's stamp, 1 = a raw f64 follows]
//
// A record's index is its frame's first index plus its position, and
// its stamp (the router's stream clock, ShardRouter) is implied by the
// clock bit: max(previous stamp in the frame, this record's time). The
// torn-tail rule is per frame: a frame that fails its CRC, or is cut
// short, is dropped whole, with everything after it, and recovery
// truncates the segment back to its last whole frame. Nothing in a
// dropped frame was acknowledged: its sync() had not returned. Rotation
// is atomic in the container sense: a new segment is created, headered
// and (per policy) fsync'd before the writer moves to it; existing
// segments are never rewritten. Segments of an older format are refused
// typed, never skipped: skipping would silently drop durable records.
//
// Durability has one owner. append() only encodes a record into the
// pending frame; sync() seals the pending records as one frame and does
// all of the writer's storage I/O; and the caller decides *when* by
// calling commit() at each durability boundary — after one offer, after
// one batch, or not at all while the disk is faulted (the supervisor's
// storage-degraded mode). WalFsync::kEveryAppend (the default, and what
// the crash-consistency proof assumes) makes every commit an fsync;
// kNever is for benches. Under kEveryAppend, directory entries are
// fsync'd when a segment is created (io::Vfs::sync_parent_dir), so a
// machine crash cannot unlink a synced segment. All file I/O goes
// through the segment's io::Vfs (WalOptions::vfs), so storage faults —
// ENOSPC, EIO, short writes, power cuts and process crashes — are
// injectable per shard.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
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

/// The smallest encoded record: head byte, 1-byte seq delta, time,
/// actor and subject, the clock bit set. The supervisor prices the log
/// behind a checkpoint at this many bytes per record.
inline constexpr std::size_t kMinRecordBytes = 1 + 1 + 8 + 4 + 4;

struct WalOptions {
  std::string dir;  // segment directory; created if absent
  /// Records per segment before rotation. Rotation happens at a
  /// commit, so a sealed segment holds at least this many.
  std::uint64_t segment_records = 4096;
  WalFsync fsync = WalFsync::kEveryAppend;
  /// Stamped into every segment header so a segment
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
  /// Every bit a record can carry (the on-disk flags field is 4 bits).
  static constexpr std::uint32_t kAll = 0xFu;
};

/// One logged offer, in memory.
struct WalRecord {
  std::uint64_t index = 0;  // global record index, 0-based
  std::uint64_t seq = 0;    // transport seq as offered (may be kAutoSeq)
  osn::Event event{};
  std::uint32_t flags = 0;
  /// The router's stream clock when the record was offered: the largest
  /// valid event time offered so far, this record's included.
  graph::Time stamp = osn::kNoStamp;

  bool shed() const noexcept { return (flags & WalRecordFlags::kShed) != 0; }
};

/// Appender. Always starts a fresh segment (recovery never appends to a
/// possibly-torn file); destruction best-effort flushes and never
/// throws.
class WalWriter {
 public:
  /// Opens a new segment whose base index is `next_index`; `clock` is
  /// the stamp of record next_index - 1, which the header keeps for a
  /// recovery that finds that record pruned. Throws
  /// io::SnapshotError(kWriteFailed) on I/O failure.
  WalWriter(const WalOptions& options, std::uint64_t next_index,
            graph::Time clock = osn::kNoStamp);
  /// Seals any pending records into a last frame; the file's
  /// destructor then best-effort flushes it and never throws.
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Encodes one record into the pending frame and returns its global
  /// index. Issues no I/O: it never rotates, never flushes and never
  /// throws a storage fault. The record is appended (next_index()
  /// advanced) but not durable until a sync(). Throws
  /// std::invalid_argument for flags outside WalRecordFlags::kAll.
  std::uint64_t append(const osn::Event& e, std::uint64_t seq,
                       std::uint32_t flags,
                       graph::Time stamp = osn::kNoStamp);

  /// The durability boundary after one offer or one batch: sync()s when
  /// the policy is kEveryAppend or the segment is full. Issues no I/O
  /// when nothing is pending. Returns the records it made durable.
  /// Throws like sync().
  std::uint64_t commit();

  /// All of the writer's storage I/O: seals the pending records as one
  /// frame, flushes the buffer, fsyncs unless the policy is kNever, then
  /// rotates once the segment holds at least segment_records records. A
  /// no-op when nothing is pending. Throws io::VfsError on a storage
  /// fault: the unwritten suffix of the sealed frames stays retained and
  /// every record stays unsynced for the next sync(), which seals the
  /// records appended meanwhile as a frame of their own (a failed
  /// rotation leaves the writer on the current segment).
  void sync();

  /// Records appended since the last successful sync() — the occupancy
  /// of the supervisor's storage-degraded buffer.
  std::uint64_t unsynced_records() const noexcept { return unsynced_records_; }

  std::uint64_t next_index() const noexcept { return next_index_; }
  std::uint64_t segments_opened() const noexcept { return segments_opened_; }

 private:
  void open_segment();
  /// Moves the pending records into the file buffer as one frame.
  void seal();

  WalOptions options_;
  io::Vfs* vfs_ = nullptr;
  std::unique_ptr<io::BufferedVfsFile> file_;
  std::uint64_t next_index_;
  std::uint64_t segment_base_ = 0;
  std::uint64_t segments_opened_ = 0;
  std::uint64_t unsynced_records_ = 0;
  /// The open frame: header space, then the encoded records.
  std::vector<unsigned char> pending_;
  std::uint32_t pending_records_ = 0;
  /// Delta-coding state: the previous record's seq and stamp in the
  /// open frame (first index - 1 and -inf at a frame's start).
  std::uint64_t prev_seq_ = 0;
  graph::Time prev_stamp_ = osn::kNoStamp;
  /// Stamp of record next_index_ - 1: the next segment header's clock.
  graph::Time clock_;
};

/// What a recovery scan found and did.
struct WalScanReport {
  std::uint64_t segments_scanned = 0;
  std::uint64_t records_scanned = 0;   // valid records seen (all segments)
  std::uint64_t records_returned = 0;  // records with index >= from_index
  /// Records dropped because their frame sat at or behind a corrupt
  /// frame (strict prefix semantics: nothing after the first bad frame
  /// in a segment is trusted), as far as the dropped frames' headers
  /// tell; a dropped tail whose header cannot be read counts as one.
  std::uint64_t records_truncated = 0;
  /// Segments whose tail was healed (file truncated in place back to
  /// its last whole frame).
  std::uint64_t torn_tails_healed = 0;
  /// Highest valid record index seen + 1 (0 when the log is empty):
  /// where the next WalWriter continues.
  std::uint64_t next_index = 0;
  /// Stamp of the last valid record in the log (from the last scanned
  /// segment's header when that segment holds none), osn::kNoStamp when
  /// there is none: the stream clock a recovered shard resumes at.
  graph::Time last_stamp = osn::kNoStamp;
};

/// `expected_shard` value that disables the shard-identity check.
inline constexpr std::uint32_t kWalAnyShard = ~std::uint32_t{0};

/// Scans `dir` in segment order, validates every frame CRC, heals torn
/// tails in place, and returns the valid records with index >=
/// `from_index` in index order. Segments entirely below `from_index`
/// are skipped without reading their records. Throws io::SnapshotError
/// on unreadable directories; a torn or corrupt frame never throws — it
/// is truncated and reported (a WAL's job is to survive exactly that).
/// Misconfiguration throws SnapshotError(kFormatViolation) instead: a
/// segment header carrying a shard id other than `expected_shard` (a
/// foreign shard's log must never be replayed here), a segment of
/// another format version (v1/v2 segments are refused, not skipped),
/// and a frame whose CRC holds but whose records do not decode. Reads
/// and tail healing go through `vfs` (null → io::default_vfs()).
std::vector<WalRecord> scan_wal(const std::string& dir,
                                std::uint64_t from_index,
                                WalScanReport& report,
                                std::uint32_t expected_shard = kWalAnyShard,
                                io::Vfs* vfs = nullptr);

/// The same scan, handing each record to `visit` instead of collecting
/// them: recovery applies the log as it decodes it, so it never holds
/// the whole log twice. A frame's records are visited only once the
/// whole frame has passed its checks and decoded. Whatever `visit`
/// throws propagates.
WalScanReport scan_wal(const std::string& dir, std::uint64_t from_index,
                       const std::function<void(const WalRecord&)>& visit,
                       std::uint32_t expected_shard = kWalAnyShard,
                       io::Vfs* vfs = nullptr);

/// A read-only cursor over the admitted (non-shed) records of the log
/// range [begin, end): recovery's queue, read back from the WAL as it
/// is drained instead of held in memory (ServiceSupervisor::start). It
/// holds one segment image and one decoded frame at a time, reads only
/// segments whose base is below `end` — the base of the segment a
/// WalWriter resumed at, which it therefore never opens — and never
/// truncates anything. The range was validated when it was scanned, so
/// every deviation is corruption or loss since then and throws
/// io::SnapshotError: a frame that no longer passes its bounds or CRC
/// (kChecksumMismatch) or does not decode (kFormatViolation), a segment
/// header that is no longer whole (kChecksumMismatch), a segment that
/// can no longer be opened (kOpenFailed), and a short read or a range
/// that skips an index or ends before `pending` admitted records
/// (kTruncated). It never skips a record silently. After a
/// throw the cursor stands where it stood, so a retry throws again.
class WalCursor {
 public:
  /// Lists the segments; reads nothing yet. `pending` is how many
  /// admitted records [begin, end) holds (at least 1).
  WalCursor(const std::string& dir, std::uint64_t begin, std::uint64_t end,
            std::uint64_t pending, std::uint32_t expected_shard,
            io::Vfs* vfs = nullptr);

  /// Admitted records not yet popped.
  std::uint64_t pending() const noexcept { return pending_; }

  /// The next admitted record, decoding frames (and reading segments)
  /// up to it. Requires pending() > 0. The reference stays valid until
  /// the next pop().
  const WalRecord& head();

  /// Moves past head(). Requires that head() returned since the last pop.
  void pop() noexcept {
    ++frame_at_;
    --pending_;
  }

 private:
  /// Decodes the next frame, reading the next segment first when the
  /// current one is exhausted.
  void advance();

  std::string dir_;
  io::Vfs* vfs_;
  std::uint32_t shard_;
  std::uint64_t begin_;
  std::uint64_t pending_;
  /// Segments below `end` from the one holding `begin` on, by base.
  std::vector<std::pair<std::uint64_t, std::string>> segments_;
  std::size_t next_segment_ = 0;
  /// The current segment's image, the offset of its next frame, and
  /// the index that frame must start at.
  std::vector<unsigned char> image_;
  std::size_t at_ = 0;
  std::uint64_t expected_ = 0;
  std::vector<WalRecord> frame_;
  std::size_t frame_at_ = 0;
};

/// The position a state file's name carries: `prefix`, 20 decimal
/// digits, `suffix` ("wal-<base>.seg", "ckpt-<position>.sybs"). Any
/// other name is nullopt, 20 digits past 2^64 - 1 included: the service
/// never writes such a name, so its listings skip it.
std::optional<std::uint64_t> parse_state_file_name(std::string_view name,
                                                   std::string_view prefix,
                                                   std::string_view suffix);

/// Deletes segments whose entire record range lies below `index` (every
/// retained checkpoint replays from at or above it). Returns segments
/// removed.
std::uint64_t prune_wal(const std::string& dir, std::uint64_t index,
                        io::Vfs* vfs = nullptr);

}  // namespace sybil::service
