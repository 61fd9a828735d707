#include "service/wal.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/metrics/instrument.h"
#include "io/crc32.h"
#include "io/error.h"

namespace sybil::service {

namespace fs = std::filesystem;
using io::SnapshotError;
using io::SnapshotErrorCode;

namespace {

// "SYWL" in little-endian byte order: segment files start 53 59 57 4C.
constexpr std::uint32_t kWalMagic = 0x4C575953u;
constexpr std::uint16_t kWalEndianTag = 0x0102u;
constexpr std::uint16_t kWalHeaderSize = 24;
// v1: shard_id field written as zero ("reserved"). v2 stamps the owning
// shard's id there; layout is byte-identical, so v1 segments still scan
// (they predate shard identity and skip the ownership check).
constexpr std::uint32_t kWalFormatVersion = 2;

struct SegmentHeader {
  std::uint32_t magic;
  std::uint16_t endian_tag;
  std::uint16_t header_size;
  std::uint32_t format_version;
  std::uint32_t shard_id;
  std::uint64_t base_index;
};
static_assert(sizeof(SegmentHeader) == kWalHeaderSize);

/// Record payload as laid out on disk, after the leading CRC32. The
/// field order packs without padding; the static_assert enforces it.
struct RecordDisk {
  std::uint64_t index;
  std::uint64_t seq;
  double time;
  std::uint32_t actor;
  std::uint32_t subject;
  std::uint32_t type;
  std::uint32_t flags;
};
constexpr std::size_t kRecordPayloadSize = 40;
constexpr std::size_t kRecordSize = 4 + kRecordPayloadSize;
static_assert(sizeof(RecordDisk) == kRecordPayloadSize);

std::string segment_name(std::uint64_t base) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(base));
  return buf;
}

std::uint32_t payload_crc(const RecordDisk& rec) noexcept {
  return io::crc32({reinterpret_cast<const std::byte*>(&rec), sizeof(rec)});
}

/// Chunked read adapter for recovery scans: the scan reads a 4-byte
/// CRC and a 40-byte record at a time, which through the raw VFS
/// passthrough is a syscall (plus a metric bump) per call — a 64 KiB
/// front buffer amortizes both without changing read semantics (short
/// reads still only happen at end of file).
class ScanReader {
 public:
  explicit ScanReader(io::VfsFile& inner) : inner_(inner) {}

  std::size_t read(void* buf, std::size_t n) {
    auto* dst = static_cast<unsigned char*>(buf);
    std::size_t done = 0;
    while (done < n) {
      if (pos_ == len_) {
        len_ = inner_.read(buffer_, sizeof buffer_);
        pos_ = 0;
        if (len_ == 0) break;
      }
      const std::size_t take = std::min(n - done, len_ - pos_);
      std::memcpy(dst + done, buffer_ + pos_, take);
      pos_ += take;
      done += take;
    }
    return done;
  }

 private:
  io::VfsFile& inner_;
  unsigned char buffer_[1 << 16];
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Segment files in `dir`, sorted by base index parsed from the name.
std::vector<std::pair<std::uint64_t, fs::path>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 28 || name.rfind("wal-", 0) != 0 ||
        name.substr(24) != ".seg") {
      continue;
    }
    const std::string digits = name.substr(4, 20);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    out.emplace_back(std::stoull(digits), entry.path());
  }
  if (ec) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot list WAL directory " + dir);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace

void WalOptions::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("WalOptions: dir must be non-empty");
  }
  if (segment_records == 0) {
    throw std::invalid_argument("WalOptions: segment_records must be >= 1");
  }
}

WalWriter::WalWriter(const WalOptions& options, std::uint64_t next_index)
    : options_(options),
      vfs_(options.vfs != nullptr ? options.vfs : io::default_vfs()),
      next_index_(next_index) {
  options_.validate();
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw SnapshotError(SnapshotErrorCode::kWriteFailed,
                        "cannot create WAL directory " + options_.dir);
  }
  open_segment();
}

// BufferedVfsFile's destructor best-effort flushes and closes without
// throwing; destruction of a degraded writer simply drops the backlog.
WalWriter::~WalWriter() = default;

void WalWriter::open_segment() {
  const std::uint64_t base = next_index_;
  const std::string path = options_.dir + "/" + segment_name(base);
  std::unique_ptr<io::BufferedVfsFile> fresh;
  try {
    fresh = std::make_unique<io::BufferedVfsFile>(
        vfs_->open(path, io::VfsMode::kTruncate));
    SegmentHeader header{};
    header.magic = kWalMagic;
    header.endian_tag = kWalEndianTag;
    header.header_size = kWalHeaderSize;
    header.format_version = kWalFormatVersion;
    header.shard_id = options_.shard_id;
    header.base_index = base;
    fresh->write(&header, sizeof(header));
    fresh->flush();
    if (options_.fsync != WalFsync::kNever) {
      fresh->fsync();
      SYBIL_METRIC_COUNT("service.wal.fsyncs", 1);
      // Make the directory entry itself durable: a synced segment that
      // vanishes on power loss is no WAL at all.
      vfs_->sync_parent_dir(path);
      SYBIL_METRIC_COUNT("io.fsyncs", 1);
    }
    // The outgoing segment was sealed by the sync() that rotates; a
    // close failure after that cannot lose records but must still
    // surface typed — undo the rotation first.
    if (file_ != nullptr) file_->close();
  } catch (const io::VfsError&) {
    // Remove the stillborn segment so no file claims base `base`: the
    // scan/prune range invariant (segment i covers [base_i, base_{i+1}))
    // must keep holding while the sealed segment absorbs further
    // records.
    fresh.reset();
    vfs_->remove(path);
    throw;
  }
  file_ = std::move(fresh);
  segment_base_ = base;
  ++segments_opened_;
  SYBIL_METRIC_COUNT("service.wal.segments", 1);
}

std::uint64_t WalWriter::append(const osn::Event& e, std::uint64_t seq,
                                std::uint32_t flags) {
  RecordDisk rec{};
  rec.index = next_index_;
  rec.seq = seq;
  rec.time = e.time;
  rec.actor = e.actor;
  rec.subject = e.subject;
  rec.type = static_cast<std::uint32_t>(e.type);
  rec.flags = flags;
  const std::uint32_t crc = payload_crc(rec);
  file_->write(&crc, sizeof(crc));  // buffered: cannot fail
  file_->write(&rec, sizeof(rec));
  SYBIL_METRIC_COUNT("service.wal.appends", 1);
  SYBIL_METRIC_COUNT("service.wal.bytes", kRecordSize);
  ++unsynced_records_;
  return next_index_++;
}

std::uint64_t WalWriter::commit() {
  const std::uint64_t n = unsynced_records_;
  if (n == 0) return 0;
  if (options_.fsync != WalFsync::kEveryAppend &&
      next_index_ - segment_base_ < options_.segment_records) {
    return 0;
  }
  sync();
  SYBIL_METRIC_COUNT("service.wal.group_commit.groups", 1);
  SYBIL_METRIC_COUNT("service.wal.group_commit.records", n);
  return n;
}

void WalWriter::sync() {
  if (unsynced_records_ == 0) return;
  // Retention makes this all-or-nothing: on a VfsError the unwritten
  // suffix stays buffered and every record stays pending.
  file_->flush();
  if (options_.fsync != WalFsync::kNever) {
    file_->fsync();
    SYBIL_METRIC_COUNT("service.wal.fsyncs", 1);
  }
  unsynced_records_ = 0;
  if (next_index_ - segment_base_ >= options_.segment_records) {
    open_segment();
  }
}

std::vector<WalRecord> scan_wal(const std::string& dir,
                                std::uint64_t from_index,
                                WalScanReport& report,
                                std::uint32_t expected_shard, io::Vfs* vfs) {
  if (vfs == nullptr) vfs = io::default_vfs();
  report = WalScanReport{};
  report.next_index = from_index;
  std::vector<WalRecord> out;
  if (!fs::exists(dir)) return out;  // cold start: nothing logged yet
  const auto segments = list_segments(dir);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, path] = segments[i];
    // A segment's record range ends where the next one begins; skip
    // segments entirely behind the checkpoint without reading records.
    if (i + 1 < segments.size() && segments[i + 1].first <= from_index) {
      continue;
    }
    ++report.segments_scanned;
    std::unique_ptr<io::VfsFile> f;
    try {
      f = vfs->open(path.string(), io::VfsMode::kRead);
    } catch (const io::VfsError&) {
      throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                          "cannot open WAL segment " + path.string());
    }
    const auto reader = std::make_unique<ScanReader>(*f);
    SegmentHeader header{};
    const bool header_ok =
        reader->read(&header, sizeof(header)) == sizeof(header) &&
        header.magic == kWalMagic && header.endian_tag == kWalEndianTag &&
        header.header_size == kWalHeaderSize &&
        header.format_version <= kWalFormatVersion &&
        header.base_index == base;
    if (!header_ok) {
      // An unreadable header means the whole segment is untrustworthy
      // (created but never secured). Nothing in it can be replayed;
      // leave the file for a writer at this base to overwrite.
      ++report.torn_tails_healed;
      SYBIL_METRIC_COUNT("service.wal.torn_tails", 1);
      continue;
    }
    if (expected_shard != kWalAnyShard && header.format_version >= 2 &&
        header.shard_id != expected_shard) {
      throw SnapshotError(
          SnapshotErrorCode::kFormatViolation,
          "WAL segment " + path.string() + " belongs to shard " +
              std::to_string(header.shard_id) + ", not shard " +
              std::to_string(expected_shard));
    }
    std::uint64_t valid = 0;  // records validated in this segment
    bool tail_bad = false;
    for (;;) {
      std::uint32_t crc = 0;
      RecordDisk rec{};
      const std::size_t got_crc = reader->read(&crc, sizeof(crc));
      if (got_crc == 0) break;  // clean end of segment
      const std::size_t got_rec =
          got_crc == sizeof(crc) ? reader->read(&rec, sizeof(rec)) : 0;
      if (got_rec != sizeof(rec) || payload_crc(rec) != crc ||
          rec.index != base + valid) {
        tail_bad = true;
        break;
      }
      ++valid;
      ++report.records_scanned;
      if (rec.index >= from_index) {
        WalRecord r;
        r.index = rec.index;
        r.seq = rec.seq;
        r.event.type = static_cast<osn::EventType>(rec.type);
        r.event.actor = rec.actor;
        r.event.subject = rec.subject;
        r.event.time = rec.time;
        r.flags = rec.flags;
        out.push_back(r);
        ++report.records_returned;
      }
      report.next_index = std::max(report.next_index, rec.index + 1);
    }
    if (tail_bad) {
      // Strict prefix semantics: nothing at or after the first bad
      // record is trusted. Heal the file back to its last valid record
      // so the next scan is clean.
      std::error_code size_ec;
      const auto file_size = fs::file_size(path, size_ec);
      const std::uint64_t keep = kWalHeaderSize + valid * kRecordSize;
      if (!size_ec && file_size > keep) {
        const std::uint64_t dropped_bytes = file_size - keep;
        // Whole bad records plus any partial trailing bytes count as
        // one truncated record each.
        report.records_truncated +=
            (dropped_bytes + kRecordSize - 1) / kRecordSize;
        try {
          vfs->truncate(path.string(), keep);
        } catch (const io::VfsError& e) {
          if (io::is_fatal(e.kind())) throw;  // the process died mid-heal
          throw SnapshotError(SnapshotErrorCode::kWriteFailed,
                              "cannot heal WAL segment " + path.string());
        }
        ++report.torn_tails_healed;
        SYBIL_METRIC_COUNT("service.wal.torn_tails", 1);
        SYBIL_METRIC_COUNT("service.wal.truncated_records",
                           (dropped_bytes + kRecordSize - 1) / kRecordSize);
      }
    }
  }
  SYBIL_METRIC_COUNT("service.wal.scanned_records", report.records_scanned);
  return out;
}

std::uint64_t prune_wal(const std::string& dir, std::uint64_t index,
                        io::Vfs* vfs) {
  if (vfs == nullptr) vfs = io::default_vfs();
  if (!fs::exists(dir)) return 0;
  const auto segments = list_segments(dir);
  std::uint64_t removed = 0;
  for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i covers [base_i, base_{i+1}); delete it only when every
    // record it can hold is behind the oldest retained replay start.
    if (segments[i + 1].first <= index) {
      if (vfs->remove(segments[i].second.string())) ++removed;
    }
  }
  if (removed > 0) SYBIL_METRIC_COUNT("service.wal.segments_pruned", removed);
  return removed;
}

}  // namespace sybil::service
