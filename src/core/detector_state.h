// Exact-state codec for the detection pipeline, used by the service
// layer's incremental checkpoints (src/service/checkpoint.h).
//
// serialize_stream_state/restore_stream_state capture the private state
// of a StreamDetector — ledgers, first-friend lists, pending flags, the
// high watermark, dead letters, accounting counters — except its
// in-flight events, which the service WAL already holds: the caller
// re-feeds them through StreamDetector::restore_buffered (until then
// the accounting invariant is short by the buffered count). The result
// is byte-identical to a detector that never stopped: same verdicts,
// same feature snapshots, same counters, and identical bytes from the
// next serialize call (save-load-save stability). Released seqs are not
// kept, so a restored detector no longer dedups a redelivery of one;
// the service never redelivers its keys, WAL indices. Each fact is
// stored once: restore rebuilds the watcher index from the first-friend
// lists (docs/FORMATS.md §5.5). The edge set is written sorted, so the
// bytes never depend on insertion history.
//
// The encoder runs in two passes (StreamStateEncoder): an exact-size
// pass, then a write pass straight into the caller's buffer — for a
// checkpoint, the stream section's slice of the container image. The
// write pass splits the account records into fixed
// core::chunk_partition chunks on the parallel layer and radix-sorts
// the edge keys as one more task of the same loop; each task CRCs its
// own bytes and the section CRC folds them in byte order with
// io::crc32_combine. The chunks depend only on the account count, so
// bytes and CRC are identical for any SYBIL_THREADS.
//
// The caller must restore into a detector constructed with the SAME
// DetectorOptions that produced the blob (the service persists options
// digest-free: options are code-level configuration, not state).
//
// Uses the header-only ByteWriter/ByteReader and typed SnapshotError
// from src/io, plus the ledger codec that sits next to RequestLedger in
// sybil_osn (osn/ledger.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace sybil::core {

class StreamDetector;
class RealTimeDetector;

/// Blob format revision; bumped when the member list changes. Readers
/// reject every other revision with SnapshotError(kUnsupportedVersion).
inline constexpr std::uint32_t kDetectorStateVersion = 4;

/// Accounts per chunk of the encoder's write pass. Fixed, like every
/// chunk partition, so the split never depends on the thread count.
inline constexpr std::size_t kStateAccountChunk = 4096;

/// A StreamDetector's state encoder. Construction is the exact-size
/// pass; write() is the write pass. The detector must stay alive and
/// unchanged until the last write() returns.
class StreamStateEncoder {
 public:
  explicit StreamStateEncoder(const StreamDetector& d);

  /// Exact encoded size in bytes.
  std::size_t size() const noexcept { return size_; }

  /// Encodes the state into `out` and returns its CRC-32 (io::crc32 of
  /// `out`). `out` must be exactly size() bytes, and every piece must
  /// fill exactly the bytes the size pass gave it; either mismatch
  /// throws io::SnapshotError(kFormatViolation) — never a write out of
  /// bounds. Runs on the parallel layer (inline when called from
  /// inside a parallel_for chunk).
  std::uint32_t write(std::span<std::byte> out) const;

 private:
  const StreamDetector& d_;
  /// Byte offset of each account chunk, then of the edge section and
  /// of the tail (flags, dead letters, counters).
  std::vector<std::size_t> offsets_;
  std::size_t size_ = 0;
};

/// The whole state as one blob: StreamStateEncoder's two passes into a
/// fresh vector.
std::vector<std::byte> serialize_stream_state(const StreamDetector& d);
/// Throws io::SnapshotError on truncated, malformed or other-version
/// blobs, and kFormatViolation on state no detector can reach: a first
/// friend that is not a known account, or a dead-letter reason out of
/// range. `d` is left in an unspecified but destructible state on throw.
void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob);

/// A RealTimeDetector's exact state. No checkpoint stores it any more;
/// it stays only because perfbench's checkpoint.realtime_state_bytes
/// metric reads it (ROADMAP item 9 removes it, after item 10's
/// benchmark change).
std::vector<std::byte> serialize_realtime_state(const RealTimeDetector& d);

}  // namespace sybil::core
