#include "service/wal.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
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
constexpr std::uint16_t kWalHeaderSize = 36;  // the fields below + their CRC
// v1/v2: fixed 44-byte records, each with its own CRC, behind a 24-byte
// header. v3: CRC'd frames of variable-length records and a header that
// carries the stream clock. Older segments are refused, not converted.
constexpr std::uint32_t kWalFormatVersion = 3;

struct SegmentHeader {
  std::uint32_t magic;
  std::uint16_t endian_tag;
  std::uint16_t header_size;
  std::uint32_t format_version;
  std::uint32_t shard_id;
  std::uint64_t base_index;
  graph::Time clock;  // stamp of record base_index - 1
};
static_assert(sizeof(SegmentHeader) + 4 == kWalHeaderSize);
// A v1/v2 header: the same first 24 bytes, no clock and no CRC.
constexpr std::uint16_t kV2HeaderSize = 24;

struct FrameHeader {
  std::uint32_t count;
  std::uint32_t body_bytes;
  std::uint64_t first_index;
};
constexpr std::size_t kFrameHeaderBytes = 16;
constexpr std::size_t kFrameCrcBytes = 4;
static_assert(sizeof(FrameHeader) == kFrameHeaderBytes);

// Record: head byte, [raw type], varint seq delta (1-10 bytes), time,
// actor, subject, [stamp code, [raw stamp]]; kMinRecordBytes in wal.h.
constexpr std::size_t kMaxRecordBytes = 1 + 1 + 10 + 8 + 4 + 4 + 1 + 8;
constexpr unsigned kTypeBits = 3;
constexpr unsigned kTypeEscape = (1u << kTypeBits) - 1;  // raw byte follows
constexpr unsigned kFlagsShift = kTypeBits;
constexpr unsigned char kClockBit = 0x80;
constexpr unsigned char kStampPrevious = 0;
constexpr unsigned char kStampRaw = 1;

std::string segment_name(std::uint64_t base) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "wal-%020llu.seg",
                static_cast<unsigned long long>(base));
  return buf;
}

std::uint64_t bits_of(graph::Time t) noexcept {
  std::uint64_t u;
  std::memcpy(&u, &t, sizeof(u));
  return u;
}

/// The stamp a set clock bit stands for: the running maximum a stamp is,
/// taken over the previous stamp in the frame and this record's time.
graph::Time implied_stamp(graph::Time prev, graph::Time time) noexcept {
  return time > prev ? time : prev;
}

/// Reads the whole file through `f` into `buf`, sized from `hint` (the
/// file's size as listed): segments are small (a few frames past
/// segment_records records), and an in-memory image lets every length
/// field be checked against the bytes actually present. A read that
/// ends below `hint` throws SnapshotError(kTruncated): the bytes it
/// missed are durable, so the caller must neither heal nor skip them.
void read_all(io::VfsFile& f, std::uintmax_t hint,
              std::vector<unsigned char>& buf, const std::string& path) {
  std::size_t n = 0;
  buf.resize(static_cast<std::size_t>(hint) + 1);  // + 1 reaches EOF
  for (;;) {
    if (n == buf.size()) buf.resize(2 * buf.size());
    const std::size_t got = f.read(buf.data() + n, buf.size() - n);
    if (got == 0) break;
    n += got;
  }
  buf.resize(n);
  if (n < hint) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "WAL segment " + path + ": read " + std::to_string(n) +
                            " of its " + std::to_string(hint) + " bytes");
  }
}

/// The frame header at `at`, if it is plausible: it starts the record
/// `expected`, its count and body length agree with the record size
/// bounds, and the whole frame lies inside `size` bytes. Checked before
/// anything is read or reserved on its behalf.
std::optional<FrameHeader> frame_at(const unsigned char* data, std::size_t at,
                                    std::size_t size, std::uint64_t expected) {
  if (size - at < kFrameHeaderBytes) return std::nullopt;
  FrameHeader h;
  std::memcpy(&h, data + at, sizeof(h));
  const std::uint64_t body = h.body_bytes;
  if (h.count == 0 || h.first_index != expected ||
      body < h.count * std::uint64_t{kMinRecordBytes} ||
      body > h.count * std::uint64_t{kMaxRecordBytes} ||
      body + kFrameCrcBytes > size - at - kFrameHeaderBytes) {
    return std::nullopt;
  }
  return h;
}

/// Decodes one CRC-checked frame body into `out` (cleared first).
/// Returns false when the body does not decode to exactly `h.count`
/// canonical records.
bool decode_frame(const FrameHeader& h, const unsigned char* p,
                  std::vector<WalRecord>& out) {
  out.clear();
  const unsigned char* const end = p + h.body_bytes;
  std::uint64_t prev_seq = h.first_index - 1;
  graph::Time prev_stamp = osn::kNoStamp;
  for (std::uint32_t i = 0; i < h.count; ++i) {
    if (end - p < static_cast<std::ptrdiff_t>(kMinRecordBytes)) return false;
    const unsigned char head = *p++;
    unsigned type = head & kTypeEscape;
    if (type == kTypeEscape) {
      type = *p++;
      if (type < kTypeEscape) return false;  // not the canonical code
    }
    std::uint64_t zz = 0;
    for (unsigned shift = 0;; shift += 7) {
      if (p == end || shift > 63) return false;
      const unsigned char b = *p++;
      zz |= static_cast<std::uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) break;
    }
    if (end - p < 16) return false;
    WalRecord& r = out.emplace_back();
    r.index = h.first_index + i;
    r.seq = prev_seq + 1 + ((zz >> 1) ^ (0 - (zz & 1)));
    r.flags = (head >> kFlagsShift) & WalRecordFlags::kAll;
    r.event.type = static_cast<osn::EventType>(type);
    std::memcpy(&r.event.time, p, 8);
    std::memcpy(&r.event.actor, p + 8, 4);
    std::memcpy(&r.event.subject, p + 12, 4);
    p += 16;
    if ((head & kClockBit) != 0) {
      r.stamp = implied_stamp(prev_stamp, r.event.time);
    } else if (p == end) {
      return false;
    } else if (const unsigned char code = *p++; code == kStampPrevious) {
      r.stamp = prev_stamp;
    } else if (code == kStampRaw && end - p >= 8) {
      std::memcpy(&r.stamp, p, 8);
      p += 8;
    } else {
      return false;
    }
    prev_seq = r.seq;
    prev_stamp = r.stamp;
  }
  return p == end;
}

/// Segment files in `dir`, sorted by base index parsed from the name.
std::vector<std::pair<std::uint64_t, fs::path>> list_segments(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, fs::path>> out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const auto base =
        parse_state_file_name(entry.path().filename().string(), "wal-", ".seg");
    if (base) out.emplace_back(*base, entry.path());
  }
  if (ec) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot list WAL directory " + dir);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Reads segment `path` (listed at `base`) whole into `image` and
/// checks its header. Returns the header's clock, or nullopt when the
/// header is torn or names another base: nothing in the segment can be
/// replayed. Throws SnapshotError when the file cannot be opened or
/// reads short, for a segment of another format version, and for one
/// whose header names a shard other than `expected_shard`.
std::optional<graph::Time> load_segment(io::Vfs& vfs, const fs::path& path,
                                        std::uint64_t base,
                                        std::uint32_t expected_shard,
                                        std::vector<unsigned char>& image) {
  std::unique_ptr<io::VfsFile> f;
  try {
    f = vfs.open(path.string(), io::VfsMode::kRead);
  } catch (const io::VfsError&) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot open WAL segment " + path.string());
  }
  std::error_code size_ec;
  const std::uintmax_t listed = fs::file_size(path, size_ec);
  read_all(*f, size_ec ? 0 : listed, image, path.string());
  const unsigned char* const data = image.data();
  const std::size_t size = image.size();
  SegmentHeader header{};
  std::memcpy(&header, data, std::min(size, sizeof(header)));
  std::uint32_t header_crc = 0;
  if (size >= kWalHeaderSize) {
    std::memcpy(&header_crc, data + sizeof(header), sizeof(header_crc));
  }
  const bool ours = size >= 12 && header.magic == kWalMagic &&
                    header.endian_tag == kWalEndianTag;
  const bool older = ours && size >= kV2HeaderSize &&
                     header.header_size == kV2HeaderSize &&
                     header.format_version < kWalFormatVersion;
  const bool whole =
      ours && size >= kWalHeaderSize && header.header_size == kWalHeaderSize &&
      header_crc == io::crc32({reinterpret_cast<const std::byte*>(data),
                               sizeof(header)});
  if (older || (whole && header.format_version != kWalFormatVersion)) {
    throw SnapshotError(
        SnapshotErrorCode::kFormatViolation,
        "WAL segment " + path.string() + " is format v" +
            std::to_string(header.format_version) + "; this build reads v" +
            std::to_string(kWalFormatVersion) +
            " only (drain the service on the build that wrote it)");
  }
  if (!whole || header.base_index != base) return std::nullopt;
  if (expected_shard != kWalAnyShard && header.shard_id != expected_shard) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "WAL segment " + path.string() + " belongs to shard " +
                            std::to_string(header.shard_id) + ", not shard " +
                            std::to_string(expected_shard));
  }
  return header.clock;
}

/// The frame reader: decodes the frame at `at` of a loaded segment
/// image into `frame` and moves `at` and `expected` (the index the
/// frame must start at) past it. Returns false, moving nothing, at the
/// end of the image and at a frame that fails its bounds or its CRC.
/// Throws SnapshotError(kFormatViolation) for a frame whose CRC holds
/// but whose records do not decode.
bool read_frame(const std::vector<unsigned char>& image, std::size_t& at,
                std::uint64_t& expected, std::vector<WalRecord>& frame,
                const std::string& path) {
  const unsigned char* const data = image.data();
  const std::optional<FrameHeader> h =
      frame_at(data, at, image.size(), expected);
  if (!h) return false;
  const std::size_t crc_at = at + kFrameHeaderBytes + h->body_bytes;
  std::uint32_t crc = 0;
  std::memcpy(&crc, data + crc_at, sizeof(crc));
  if (crc != io::crc32({reinterpret_cast<const std::byte*>(data + at),
                        crc_at - at})) {
    return false;
  }
  if (!decode_frame(*h, data + at + kFrameHeaderBytes, frame)) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "WAL segment " + path + ": frame at " +
                            std::to_string(at) +
                            " passes its CRC but does not decode");
  }
  expected += h->count;
  at = crc_at + kFrameCrcBytes;
  return true;
}

}  // namespace

std::optional<std::uint64_t> parse_state_file_name(std::string_view name,
                                                   std::string_view prefix,
                                                   std::string_view suffix) {
  constexpr std::size_t kDigits = 20;
  if (name.size() != prefix.size() + kDigits + suffix.size() ||
      !name.starts_with(prefix) || !name.ends_with(suffix)) {
    return std::nullopt;
  }
  // from_chars takes digits only (no sign, no space) and reports a
  // value past 2^64 - 1 instead of throwing as std::stoull does.
  const char* first = name.data() + prefix.size();
  const char* last = first + kDigits;
  std::uint64_t v = 0;
  const auto [at, ec] = std::from_chars(first, last, v);
  if (ec != std::errc() || at != last) return std::nullopt;
  return v;
}

void WalOptions::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("WalOptions: dir must be non-empty");
  }
  if (segment_records == 0) {
    throw std::invalid_argument("WalOptions: segment_records must be >= 1");
  }
}

WalWriter::WalWriter(const WalOptions& options, std::uint64_t next_index,
                     graph::Time clock)
    : options_(options),
      vfs_(options.vfs != nullptr ? options.vfs : io::default_vfs()),
      next_index_(next_index),
      clock_(clock) {
  options_.validate();
  std::error_code ec;
  fs::create_directories(options_.dir, ec);
  if (ec) {
    throw SnapshotError(SnapshotErrorCode::kWriteFailed,
                        "cannot create WAL directory " + options_.dir);
  }
  open_segment();
}

// Pending records become a last frame in the file buffer, whose
// destructor best-effort flushes and closes without throwing; a
// degraded writer's backlog is simply dropped there.
WalWriter::~WalWriter() { seal(); }

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
    header.clock = clock_;
    const std::uint32_t crc = io::crc32(
        {reinterpret_cast<const std::byte*>(&header), sizeof(header)});
    fresh->write(&header, sizeof(header));
    fresh->write(&crc, sizeof(crc));
    fresh->flush();
    SYBIL_METRIC_COUNT("service.wal.bytes", kWalHeaderSize);
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
                                std::uint32_t flags, graph::Time stamp) {
  if ((flags & ~WalRecordFlags::kAll) != 0) {
    throw std::invalid_argument("WalWriter::append: flags " +
                                std::to_string(flags) +
                                " do not fit the record's 4-bit field");
  }
  if (pending_records_ == 0) {
    pending_.assign(kFrameHeaderBytes, 0);  // filled in by seal()
    prev_seq_ = next_index_ - 1;
    prev_stamp_ = osn::kNoStamp;
  }
  unsigned char rec[kMaxRecordBytes];
  std::size_t n = 0;
  const auto type = static_cast<unsigned>(e.type);
  const bool implied =
      bits_of(stamp) == bits_of(implied_stamp(prev_stamp_, e.time));
  rec[n++] = static_cast<unsigned char>(std::min(type, kTypeEscape) |
                                        flags << kFlagsShift |
                                        (implied ? kClockBit : 0));
  if (type >= kTypeEscape) rec[n++] = static_cast<unsigned char>(type);
  // Zigzag of the wrapping delta from "one past the previous seq": 0 for
  // a dense stream, one byte for a shard's share of one, and one byte
  // for repeated auto seqs too.
  const auto delta = static_cast<std::int64_t>(seq - prev_seq_ - 1);
  std::uint64_t zz = (static_cast<std::uint64_t>(delta) << 1) ^
                     static_cast<std::uint64_t>(delta >> 63);
  for (; zz >= 0x80; zz >>= 7) {
    rec[n++] = static_cast<unsigned char>(zz | 0x80);
  }
  rec[n++] = static_cast<unsigned char>(zz);
  std::memcpy(rec + n, &e.time, 8);
  std::memcpy(rec + n + 8, &e.actor, 4);
  std::memcpy(rec + n + 12, &e.subject, 4);
  n += 16;
  if (!implied) {
    if (bits_of(stamp) == bits_of(prev_stamp_)) {
      rec[n++] = kStampPrevious;
    } else {
      rec[n++] = kStampRaw;
      std::memcpy(rec + n, &stamp, 8);
      n += 8;
    }
  }
  pending_.insert(pending_.end(), rec, rec + n);
  ++pending_records_;
  prev_seq_ = seq;
  prev_stamp_ = clock_ = stamp;
  SYBIL_METRIC_COUNT("service.wal.appends", 1);
  ++unsynced_records_;
  return next_index_++;
}

void WalWriter::seal() {
  if (pending_records_ == 0) return;
  FrameHeader header{};
  header.first_index = next_index_ - pending_records_;
  header.count = pending_records_;
  header.body_bytes =
      static_cast<std::uint32_t>(pending_.size() - kFrameHeaderBytes);
  std::memcpy(pending_.data(), &header, sizeof(header));
  const std::uint32_t crc = io::crc32(
      {reinterpret_cast<const std::byte*>(pending_.data()), pending_.size()});
  file_->write(pending_.data(), pending_.size());
  file_->write(&crc, sizeof(crc));
  SYBIL_METRIC_COUNT("service.wal.bytes", pending_.size() + sizeof(crc));
  pending_records_ = 0;
  pending_.clear();
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
  seal();
  // Retention makes this all-or-nothing: on a VfsError the unwritten
  // suffix stays buffered and every record stays unsynced.
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
  std::vector<WalRecord> out;
  report = scan_wal(
      dir, from_index, [&out](const WalRecord& r) { out.push_back(r); },
      expected_shard, vfs);
  return out;
}

WalScanReport scan_wal(const std::string& dir, std::uint64_t from_index,
                       const std::function<void(const WalRecord&)>& visit,
                       std::uint32_t expected_shard, io::Vfs* vfs) {
  if (vfs == nullptr) vfs = io::default_vfs();
  WalScanReport report;
  report.next_index = from_index;
  if (!fs::exists(dir)) return report;  // cold start: nothing logged yet
  const auto segments = list_segments(dir);
  std::vector<unsigned char> image;
  std::vector<WalRecord> frame;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const auto& [base, path] = segments[i];
    // A segment's record range ends where the next one begins; skip
    // segments entirely behind the checkpoint without reading records.
    if (i + 1 < segments.size() && segments[i + 1].first <= from_index) {
      continue;
    }
    ++report.segments_scanned;
    const std::optional<graph::Time> clock =
        load_segment(*vfs, path, base, expected_shard, image);
    if (!clock) {
      // An unreadable header means the whole segment is untrustworthy
      // (created but never secured). Nothing in it can be replayed;
      // leave the file for a writer at this base to overwrite.
      ++report.torn_tails_healed;
      SYBIL_METRIC_COUNT("service.wal.torn_tails", 1);
      continue;
    }
    report.last_stamp = *clock;
    std::size_t at = kWalHeaderSize;
    std::uint64_t expected = base;
    const std::string name = path.string();
    while (read_frame(image, at, expected, frame, name)) {
      for (const WalRecord& r : frame) {
        if (r.index < from_index) continue;
        visit(r);
        ++report.records_returned;
      }
      report.records_scanned += frame.size();
      report.last_stamp = frame.back().stamp;
      report.next_index = std::max(report.next_index, expected);
    }
    const unsigned char* const data = image.data();
    const std::size_t size = image.size();
    if (at == size) continue;
    // Strict prefix semantics: nothing at or after the first bad frame
    // is trusted. Count what the dropped frames' headers claim, then
    // heal the file back to its last whole frame so the next scan is
    // clean.
    std::uint64_t dropped = 0;
    for (std::size_t k = at; k < size;) {
      const std::optional<FrameHeader> h = frame_at(data, k, size, expected);
      if (!h) {
        ++dropped;  // an unreadable tail: at least one record
        break;
      }
      dropped += h->count;
      expected += h->count;
      k += kFrameHeaderBytes + h->body_bytes + kFrameCrcBytes;
    }
    report.records_truncated += dropped;
    try {
      vfs->truncate(path.string(), at);
    } catch (const io::VfsError& e) {
      if (io::is_fatal(e.kind())) throw;  // the process died mid-heal
      throw SnapshotError(SnapshotErrorCode::kWriteFailed,
                          "cannot heal WAL segment " + path.string());
    }
    ++report.torn_tails_healed;
    SYBIL_METRIC_COUNT("service.wal.torn_tails", 1);
    SYBIL_METRIC_COUNT("service.wal.truncated_records", dropped);
  }
  SYBIL_METRIC_COUNT("service.wal.scanned_records", report.records_scanned);
  return report;
}

WalCursor::WalCursor(const std::string& dir, std::uint64_t begin,
                     std::uint64_t end, std::uint64_t pending,
                     std::uint32_t expected_shard, io::Vfs* vfs)
    : dir_(dir),
      vfs_(vfs != nullptr ? vfs : io::default_vfs()),
      shard_(expected_shard),
      begin_(begin),
      pending_(pending),
      expected_(begin) {
  for (auto& [base, path] : list_segments(dir)) {
    if (base >= end) break;
    // Keep the segment holding `begin` (the last one based at or below
    // it) and everything after.
    if (base <= begin) segments_.clear();
    segments_.emplace_back(base, path.string());
  }
}

const WalRecord& WalCursor::head() {
  for (;;) {
    for (; frame_at_ < frame_.size(); ++frame_at_) {
      const WalRecord& r = frame_[frame_at_];
      if (!r.shed() && r.index >= begin_) return r;
    }
    advance();
  }
}

void WalCursor::advance() {
  // Cleared first, so a frame that throws leaves nothing behind to pop.
  frame_.clear();
  frame_at_ = 0;
  if (at_ < image_.size()) {
    const std::string& path = segments_[next_segment_ - 1].second;
    if (!read_frame(image_, at_, expected_, frame_, path)) {
      throw SnapshotError(SnapshotErrorCode::kChecksumMismatch,
                          "WAL segment " + path + ": frame at " +
                              std::to_string(at_) +
                              " no longer passes its checks");
    }
    return;
  }
  // The next segment must start where the last one ended (the first
  // one, at or below `begin`).
  const auto ends_early = [this](const std::string& why) {
    return SnapshotError(
        SnapshotErrorCode::kTruncated,
        "WAL " + dir_ + " " + why + " at record " +
            std::to_string(expected_) + " with " + std::to_string(pending_) +
            " admitted record(s) from " + std::to_string(begin_) +
            " still unread");
  };
  if (next_segment_ == segments_.size()) throw ends_early("ends");
  const auto& [base, path] = segments_[next_segment_];
  if (next_segment_ == 0 ? base > begin_ : base != expected_) {
    throw ends_early("skips to segment " + std::to_string(base));
  }
  try {
    if (!load_segment(*vfs_, path, base, shard_, image_)) {
      throw SnapshotError(SnapshotErrorCode::kChecksumMismatch,
                          "WAL segment " + path +
                              ": header no longer whole");
    }
  } catch (...) {
    image_.clear();  // stand where we stood: the next call re-reads
    throw;
  }
  ++next_segment_;
  at_ = kWalHeaderSize;
  expected_ = base;
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
