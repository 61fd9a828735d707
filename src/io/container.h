// Versioned binary container: the on-disk envelope every snapshot in
// this tree shares (graph snapshots, ML dataset snapshots, simulator
// checkpoints, bench scenarios).
//
// Layout (all integers little-endian on the writing machine; the header
// carries an endianness tag so a foreign-endian file is rejected rather
// than misread — see docs/FORMATS.md for the byte-level spec):
//
//   header   32 B   magic "SYBS", endian tag, header size, format
//                   version, payload kind, section count, table CRC32,
//                   total file size
//   table    24 B   per section: id, payload CRC32, offset, length
//   payloads        8-byte aligned, zero padding between
//
// Integrity: the table CRC covers the section table; every payload has
// its own CRC32, and a ContainerReader checks all of them when it is
// constructed. Atomicity: ContainerWriter writes to "<path>.tmp" and
// renames over the target, so a crash mid-write never leaves a
// half-written file under the final name.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "io/error.h"
#include "io/mmap_file.h"
#include "io/vfs.h"

namespace sybil::io {

/// What a container file holds. A loader states what it expects and the
/// reader rejects anything else with kWrongPayload.
enum class PayloadKind : std::uint32_t {
  kTimestampedGraph = 1,
  kCsrGraph = 2,
  kDataset = 3,
  kSimulatorCheckpoint = 4,
  kDefenseScenario = 5,
  kServiceCheckpoint = 6,
};

/// Durability policy of ContainerWriter::commit. The temp+rename dance
/// alone survives a *process* crash; surviving a *machine* crash also
/// needs the file and its parent directory fsync'd before rename is
/// trusted (an unsynced rename can vanish on power loss).
enum class SyncMode {
  /// Honor the SYBIL_IO_FSYNC environment knob (default: sync). The
  /// posture for ordinary snapshots: durable unless an operator or a
  /// bench harness opts out for throughput.
  kEnv,
  /// Always fsync file + parent directory regardless of the knob.
  kAlways,
  /// Never fsync (temp files a bench discards; still atomic vs process
  /// crash via temp+rename).
  kNever,
};

/// The SYBIL_IO_FSYNC knob, read per call like SYBIL_IO_MMAP: unset,
/// "1" or "on" → true; "0" or "off" → false.
bool fsync_enabled() noexcept;

/// fsyncs an already-renamed path's parent directory so the rename
/// itself is durable. Returns false on failure (non-fatal for readers;
/// commit() turns it into kWriteFailed). No-op on non-POSIX builds.
bool fsync_parent_dir(const std::string& path) noexcept;

/// Newest container revision this build writes and the fence readers
/// enforce: version <= kFormatVersion loads, anything newer is rejected
/// with kUnsupportedVersion (forward compatibility is explicitly not
/// promised; see docs/FORMATS.md §Versioning).
inline constexpr std::uint32_t kFormatVersion = 1;

/// Accumulates named sections in memory, then commits them to disk in
/// one atomic publish (temp file + fsync + rename).
class ContainerWriter {
 public:
  explicit ContainerWriter(PayloadKind kind) : kind_(kind) {}

  /// Adds a section; ids must be unique within the file.
  void add_section(std::uint32_t id, std::vector<std::byte> payload);

  /// Typed convenience: copies `values` into a new section.
  template <typename T>
  void add_pod_section(std::uint32_t id, std::span<const T> values) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> bytes(values.size_bytes());
    if (!bytes.empty()) {
      std::memcpy(bytes.data(), values.data(), values.size_bytes());
    }
    add_section(id, std::move(bytes));
  }

  /// Serializes header + table + payloads and atomically replaces
  /// `path`. All I/O goes through `vfs` (null → default_vfs()), so
  /// fault-injection tests can fail any individual write/fsync/rename.
  /// Throws io::VfsError (a SnapshotError; kWriteFailed for write-path
  /// failures, kOpenFailed when the temp file cannot be created); the
  /// temp file is removed, the target is left untouched. `sync` decides
  /// whether the image and the parent directory are fsync'd before the
  /// commit is reported durable (see SyncMode).
  void commit(const std::string& path, SyncMode sync = SyncMode::kEnv,
              Vfs* vfs = nullptr) const;

  /// In-memory serialization (what commit() writes) — for tests and
  /// corruption-injection tooling.
  std::vector<std::byte> serialize() const;

 private:
  struct Section {
    std::uint32_t id;
    std::vector<std::byte> payload;
  };
  PayloadKind kind_;
  std::vector<Section> sections_;
};

/// Validating reader over a mapped (or read) container file. Sections
/// are exposed as spans into the mapping — zero-copy for mmap'd files.
class ContainerReader {
 public:
  /// Opens and fully validates the envelope: magic, endianness, header
  /// size, version fence, payload kind, declared file size (truncation),
  /// table CRC, section bounds/alignment/overlap, and each section's
  /// payload CRC. Throws the matching SnapshotError on the first defect;
  /// a reader that constructs successfully holds a structurally sound
  /// file.
  ContainerReader(const std::string& path, PayloadKind expected,
                  bool prefer_mmap = true);

  /// Validates an already-loaded image (tests inject corruption here).
  ContainerReader(std::vector<std::byte> image, PayloadKind expected);

  std::uint32_t format_version() const noexcept { return version_; }
  bool mapped() const noexcept { return file_ && file_->mapped(); }

  bool has_section(std::uint32_t id) const noexcept;

  /// Section payload bytes; throws kMalformedSection if absent.
  std::span<const std::byte> section(std::uint32_t id) const;

  /// Typed view of a section. Length must divide sizeof(T) exactly and
  /// the payload must be suitably aligned (the writer 8-byte aligns
  /// every payload, which covers all types used by the formats).
  template <typename T>
  std::span<const T> pod_section(std::uint32_t id) const {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto bytes = section(id);
    if (bytes.size() % sizeof(T) != 0) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "section " + std::to_string(id) + " length " +
                              std::to_string(bytes.size()) +
                              " not a multiple of element size");
    }
    if (reinterpret_cast<std::uintptr_t>(bytes.data()) % alignof(T) != 0) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "section " + std::to_string(id) + " misaligned");
    }
    return {reinterpret_cast<const T*>(bytes.data()),
            bytes.size() / sizeof(T)};
  }

  /// Keeps the underlying mapping alive for zero-copy consumers that
  /// outlive the reader (e.g. a CsrGraph viewing mapped sections).
  std::shared_ptr<const void> backing() const noexcept { return file_; }

 private:
  void validate(PayloadKind expected);
  std::span<const std::byte> bytes() const noexcept;

  std::shared_ptr<const MappedFile> file_;  // null when image-backed
  std::vector<std::byte> image_;
  std::uint32_t version_ = 0;
  struct Entry {
    std::uint32_t id;
    std::uint64_t offset;
    std::uint64_t length;
  };
  std::vector<Entry> entries_;
};

/// Bounds-checked sequential decoder for record-structured sections
/// (accounts, ledgers, pending requests...). Overruns throw
/// kMalformedSection instead of reading out of bounds.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T read() {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - at_ < sizeof(T)) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "record section shorter than its declared count");
    }
    T value;
    std::memcpy(&value, bytes_.data() + at_, sizeof(T));
    at_ += sizeof(T);
    return value;
  }

  /// Reads a u64 element count and rejects (kMalformedSection) any count
  /// whose elements, at `min_bytes_per_element` (> 0) each, cannot fit
  /// in the bytes left — so a corrupt count fails before it sizes an
  /// allocation.
  std::uint64_t read_count(std::size_t min_bytes_per_element) {
    const auto n = read<std::uint64_t>();
    if (n > (bytes_.size() - at_) / min_bytes_per_element) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "element count " + std::to_string(n) +
                              " exceeds the bytes left in its section");
    }
    return n;
  }

  bool exhausted() const noexcept { return at_ == bytes_.size(); }

 private:
  std::span<const std::byte> bytes_;
  std::size_t at_ = 0;
};

/// Append-only encoder matching ByteReader. Writes go through a cursor
/// into one buffer: an encoder that knows its output size calls
/// reserve() once up front, so the buffer never regrows and take()
/// hands it over without slack; write() is a bounds check plus a
/// memcpy, growing geometrically only when nothing was reserved.
class ByteWriter {
 public:
  /// Sizes the buffer for `n` bytes in total.
  void reserve(std::size_t n) {
    if (n > bytes_.size()) bytes_.resize(n);
  }

  template <typename T>
  void write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (bytes_.size() - at_ < sizeof(T)) grow(sizeof(T));
    std::memcpy(bytes_.data() + at_, &value, sizeof(T));
    at_ += sizeof(T);
  }

  std::vector<std::byte> take() && {
    bytes_.resize(at_);
    return std::move(bytes_);
  }

 private:
  void grow(std::size_t n) {
    reserve(std::max({at_ + n, 2 * bytes_.size(), std::size_t{64}}));
  }

  std::vector<std::byte> bytes_;  // the buffer; its size is the capacity
  std::size_t at_ = 0;            // bytes written
};

}  // namespace sybil::io
