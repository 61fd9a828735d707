#include "io/container.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/metrics/instrument.h"
#include "io/crc32.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace sybil::io {
namespace {

// "SYBS" in little-endian byte order: snapshot files start 53 59 42 53.
constexpr std::uint32_t kMagic = 0x53425953u;
// Written natively; a reader on a foreign-endian machine sees 0x0201.
constexpr std::uint16_t kEndianTag = 0x0102u;
constexpr std::uint16_t kHeaderSize = 32;
constexpr std::size_t kTableEntrySize = 24;
constexpr std::size_t kAlignment = 8;

struct Header {
  std::uint32_t magic;
  std::uint16_t endian_tag;
  std::uint16_t header_size;
  std::uint32_t format_version;
  std::uint32_t payload_kind;
  std::uint32_t section_count;
  std::uint32_t table_crc;
  std::uint64_t file_size;
};
static_assert(sizeof(Header) == kHeaderSize);

constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kAlignment - 1) & ~(kAlignment - 1);
}

}  // namespace

bool fsync_enabled() noexcept {
  const char* v = std::getenv("SYBIL_IO_FSYNC");
  if (v == nullptr) return true;  // durable by default
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0);
}

bool fsync_parent_dir(const std::string& path) noexcept {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (ok) SYBIL_METRIC_COUNT("io.fsyncs", 1);
  return ok;
#else
  (void)path;
  return true;
#endif
}

SectionWriter bytes_section(std::vector<std::byte> payload) {
  auto bytes =
      std::make_shared<const std::vector<std::byte>>(std::move(payload));
  const std::size_t size = bytes->size();
  return {size, [bytes](std::span<std::byte> out) {
            SliceWriter w(out);
            w.write_bytes(*bytes);
            return w.finish();
          }};
}

void ContainerWriter::add_section(std::uint32_t id, SectionWriter writer) {
  for (const Section& s : sections_) {
    if (s.id == id) {
      throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                          "duplicate section id " + std::to_string(id));
    }
  }
  sections_.push_back({id, std::move(writer)});
}

std::size_t ContainerWriter::image_size() const noexcept {
  std::size_t size = align_up(kHeaderSize + sections_.size() * kTableEntrySize);
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    size += sections_[i].writer.size;
    if (i + 1 < sections_.size()) size = align_up(size);
  }
  return size;
}

void ContainerWriter::write_image(std::span<std::byte> image) const {
  const std::size_t table_size = sections_.size() * kTableEntrySize;
  std::byte* const table = image.data() + kHeaderSize;
  // Payloads first: each fill writes its own slice and returns the CRC
  // the table needs. Only the padding in front of each payload is
  // zeroed by hand; every other byte is written exactly once.
  std::size_t at = kHeaderSize + table_size;
  for (std::size_t i = 0; i < sections_.size(); ++i) {
    const Section& s = sections_[i];
    const std::size_t offset = align_up(at);
    std::memset(image.data() + at, 0, offset - at);
    const std::uint32_t crc =
        s.writer.fill(image.subspan(offset, s.writer.size));
    const std::uint64_t offset64 = offset, length = s.writer.size;
    std::byte* const entry = table + i * kTableEntrySize;
    std::memcpy(entry, &s.id, 4);
    std::memcpy(entry + 4, &crc, 4);
    std::memcpy(entry + 8, &offset64, 8);
    std::memcpy(entry + 16, &length, 8);
    at = offset + s.writer.size;
  }

  Header header{};
  header.magic = kMagic;
  header.endian_tag = kEndianTag;
  header.header_size = kHeaderSize;
  header.format_version = kFormatVersion;
  header.payload_kind = static_cast<std::uint32_t>(kind_);
  header.section_count = static_cast<std::uint32_t>(sections_.size());
  header.table_crc = crc32({table, table_size});
  header.file_size = image.size();
  std::memcpy(image.data(), &header, sizeof(header));
}

std::vector<std::byte> ContainerWriter::serialize() const {
  std::vector<std::byte> out(image_size());
  write_image(out);
  return out;
}

void ContainerWriter::commit(const std::string& path, SyncMode sync,
                             Vfs* vfs) const {
  SYBIL_METRIC_SCOPED_TIMER(span, "io.container.commit");
  if (vfs == nullptr) vfs = default_vfs();
  const bool want_sync =
      sync == SyncMode::kAlways || (sync == SyncMode::kEnv && fsync_enabled());
  // The one image, allocated without zero-filling: write_image writes
  // every byte of it.
  const std::size_t size = image_size();
  const auto image = std::make_unique_for_overwrite<std::byte[]>(size);
  write_image({image.get(), size});
  const std::string tmp = path + ".tmp";
  // Write-to-temp-then-rename: the target name only ever points at a
  // complete image, so a crash mid-save cannot corrupt an existing
  // snapshot or leave a short file under the final name — under *any*
  // storage fault, which is why every step goes through the vfs: on a
  // thrown VfsError (ENOSPC, EIO, short write, power cut) the temp file
  // is best-effort removed and the target was never touched.
  // Machine-crash durability additionally requires fsync of the image
  // and, after the rename, of the parent directory (the rename itself
  // lives in directory metadata) — governed by `sync`.
  try {
    auto f = vfs->open(tmp, VfsMode::kTruncate);
    f->write(image.get(), size);  // never empty: the header alone is 32 B
    if (want_sync) {
      f->fsync();
      SYBIL_METRIC_COUNT("io.fsyncs", 1);
    }
    // close() surfaces close-time write-back failures (the classic
    // silently-swallowed fclose error) as typed VfsErrors.
    f->close();
    vfs->rename(tmp, path);
    if (want_sync) {
      vfs->sync_parent_dir(path);
      SYBIL_METRIC_COUNT("io.fsyncs", 1);
    }
  } catch (const VfsError&) {
    vfs->remove(tmp);
    throw;
  }
  SYBIL_METRIC_COUNT("io.bytes_written", size);
  SYBIL_METRIC_COUNT("io.snapshots_saved", 1);
}

std::uint32_t SliceWriter::finish() const {
  if (at_ != out_.size()) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "encoder wrote " + std::to_string(at_) +
                            " bytes into a slice sized " +
                            std::to_string(out_.size()));
  }
  return crc32(out_);
}

void SliceWriter::overrun(std::size_t n) const {
  throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                      "encoder overran its slice: " + std::to_string(n) +
                          " more bytes at " + std::to_string(at_) + " of " +
                          std::to_string(out_.size()));
}

ContainerReader::ContainerReader(const std::string& path,
                                 PayloadKind expected)
    : file_(MappedFile::open(path)) {
  validate(expected);
}

ContainerReader::ContainerReader(std::vector<std::byte> image,
                                 PayloadKind expected)
    : image_(std::move(image)) {
  validate(expected);
}

std::span<const std::byte> ContainerReader::bytes() const noexcept {
  return file_ ? file_->bytes() : std::span<const std::byte>(image_);
}

void ContainerReader::validate(PayloadKind expected) {
  SYBIL_METRIC_SCOPED_TIMER(span, "io.container.validate");
  const auto data = bytes();
  if (data.size() < kHeaderSize) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "file shorter than header (" +
                            std::to_string(data.size()) + " bytes)");
  }
  Header header;
  std::memcpy(&header, data.data(), sizeof(header));
  if (header.magic != kMagic) {
    throw SnapshotError(SnapshotErrorCode::kBadMagic,
                        "not a sybil snapshot container");
  }
  if (header.endian_tag != kEndianTag) {
    throw SnapshotError(SnapshotErrorCode::kBadEndianness,
                        "written on an incompatible-endian machine");
  }
  if (header.header_size != kHeaderSize) {
    throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                        "unexpected header size");
  }
  if (header.format_version > kFormatVersion) {
    throw SnapshotError(
        SnapshotErrorCode::kUnsupportedVersion,
        "file format v" + std::to_string(header.format_version) +
            " newer than supported v" + std::to_string(kFormatVersion));
  }
  version_ = header.format_version;
  if (header.payload_kind != static_cast<std::uint32_t>(expected)) {
    throw SnapshotError(SnapshotErrorCode::kWrongPayload,
                        "payload kind " +
                            std::to_string(header.payload_kind) +
                            ", expected " +
                            std::to_string(
                                static_cast<std::uint32_t>(expected)));
  }
  if (header.file_size != data.size()) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "header declares " +
                            std::to_string(header.file_size) +
                            " bytes, file has " +
                            std::to_string(data.size()));
  }
  const std::size_t table_size =
      static_cast<std::size_t>(header.section_count) * kTableEntrySize;
  if (data.size() - kHeaderSize < table_size) {
    throw SnapshotError(SnapshotErrorCode::kTruncated,
                        "section table extends past end of file");
  }
  const auto table = data.subspan(kHeaderSize, table_size);
  if (crc32(table) != header.table_crc) {
    throw SnapshotError(SnapshotErrorCode::kChecksumMismatch,
                        "section table checksum mismatch");
  }

  entries_.reserve(header.section_count);
  std::vector<std::uint32_t> crcs(header.section_count);
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    const std::byte* at = table.data() + i * kTableEntrySize;
    Entry e;
    std::memcpy(&e.id, at, 4);
    std::memcpy(&crcs[i], at + 4, 4);
    std::memcpy(&e.offset, at + 8, 8);
    std::memcpy(&e.length, at + 16, 8);
    if (e.offset % kAlignment != 0 || e.offset > data.size() ||
        e.length > data.size() - e.offset) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "section " + std::to_string(e.id) +
                              " out of bounds or misaligned");
    }
    for (const Entry& prev : entries_) {
      if (prev.id == e.id) {
        throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                            "duplicate section id " + std::to_string(e.id));
      }
      const bool disjoint = e.offset >= prev.offset + prev.length ||
                            prev.offset >= e.offset + e.length;
      if (!disjoint) {
        throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                            "overlapping sections");
      }
    }
    entries_.push_back(e);
  }
  // Verify every payload CRC up front: a reader that constructs holds a
  // fully integrity-checked file, and nothing downstream can observe a
  // bit-flipped section. For mmap'd files this is the one full pass
  // over the data (page-cache warm-up the consumer benefits from).
  for (std::uint32_t i = 0; i < header.section_count; ++i) {
    const Entry& e = entries_[i];
    if (crc32(data.subspan(e.offset, e.length)) != crcs[i]) {
      throw SnapshotError(SnapshotErrorCode::kChecksumMismatch,
                          "section " + std::to_string(e.id) +
                              " payload checksum mismatch");
    }
  }
  SYBIL_METRIC_COUNT("io.bytes_read", data.size());
  SYBIL_METRIC_COUNT("io.snapshots_loaded", 1);
}

bool ContainerReader::has_section(std::uint32_t id) const noexcept {
  return std::any_of(entries_.begin(), entries_.end(),
                     [id](const Entry& e) { return e.id == id; });
}

std::span<const std::byte> ContainerReader::section(std::uint32_t id) const {
  for (const Entry& e : entries_) {
    if (e.id == id) return bytes().subspan(e.offset, e.length);
  }
  throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                      "missing section " + std::to_string(id));
}

}  // namespace sybil::io
