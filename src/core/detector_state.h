// Exact-state codec for the detection pipeline, used by the service
// layer's incremental checkpoints (src/service/checkpoint.h).
//
// serialize_*/restore_* capture the COMPLETE private state of a
// StreamDetector / RealTimeDetector — ledgers, watcher index, reorder
// buffer (exact heap array, so resumed releases pop in the same order),
// dedup sets, accounting counters, adaptive-tuner reservoirs and RNG
// stream — such that a restored detector is byte-identical to one that
// never stopped: same verdicts, same feature snapshots, same counters,
// and identical bytes from the next serialize call (save-load-save
// stability). Set contents are written in ascending order for that
// stability — the edge set sorted, the seen-seq set through
// SeqBitSet::sorted() — so the bytes never depend on insertion history.
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
/// reject newer revisions with SnapshotError(kUnsupportedVersion).
inline constexpr std::uint32_t kDetectorStateVersion = 2;

std::vector<std::byte> serialize_stream_state(const StreamDetector& d);
/// Throws io::SnapshotError on truncated/malformed/newer-version blobs;
/// `d` is left in an unspecified but destructible state on throw.
void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob);

std::vector<std::byte> serialize_realtime_state(const RealTimeDetector& d);
void restore_realtime_state(RealTimeDetector& d,
                            std::span<const std::byte> blob);

}  // namespace sybil::core
