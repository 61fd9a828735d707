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
// The caller must restore into a detector constructed with the SAME
// DetectorOptions that produced the blob (the service persists options
// digest-free: options are code-level configuration, not state).
//
// Uses the header-only ByteWriter/ByteReader and typed SnapshotError
// from src/io, plus the ledger codec that sits next to RequestLedger in
// sybil_osn (osn/ledger.h) — the same encoding the simulator checkpoint
// writes.
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

std::vector<std::byte> serialize_stream_state(const StreamDetector& d);
/// Throws io::SnapshotError on truncated, malformed or other-version
/// blobs, and kFormatViolation on state no detector can reach: a first
/// friend that is not a known account, or a dead-letter reason out of
/// range. `d` is left in an unspecified but destructible state on throw.
void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob);

/// A RealTimeDetector's exact state. No checkpoint stores it any more;
/// it stays only because perfbench's checkpoint.realtime_state_bytes
/// metric reads it (ROADMAP item 3 removes it after a benchmark change).
std::vector<std::byte> serialize_realtime_state(const RealTimeDetector& d);

}  // namespace sybil::core
