// Incremental service checkpoints: SYBS containers (io/container.h,
// PayloadKind::kServiceCheckpoint) capturing everything the supervisor
// needs to resume byte-identically — the StreamDetector's exact state
// (core/detector_state.h), the defense scorer's when that tier is on,
// the admitted-but-unpumped queue, the
// ServiceCounters record (stored once, encoded once as the meta
// section's counter block), the degradation tier, and the WAL
// position P (count of WAL records written when the checkpoint was
// taken). Recovery = load the newest valid generation + replay WAL
// records with index >= P through the same apply step a live offer
// runs; the checkpointed queue holds exactly the admitted records
// below P that had not reached the detector, so the two sources are
// disjoint and exactly-once is exact by construction (the detector's
// seq dedup remains as defense in depth).
//
// Generations: files are named "ckpt-<20-digit P>.sybs" in their own
// directory; bounded retention keeps the newest K. A corrupt newest
// generation (typed SnapshotError on load) falls back to the previous
// one — never a crash, never silent loss (docs/ROBUSTNESS.md).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "service/wal.h"

namespace sybil::service {

/// The replay-exact workload counters: the supervisor holds one record,
/// a checkpoint embeds it (encoded in declaration order as the meta
/// section's contiguous counter block, docs/FORMATS.md §5.4), and the
/// router sums the shards' records for its aggregate stats.
struct ServiceCounters {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t pumped = 0;
  std::uint64_t shed_low_priority = 0;
  std::uint64_t shed_sweep_only = 0;
  std::uint64_t shed_capacity = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t sweep_flagged = 0;

  std::uint64_t shed_total() const noexcept {
    return shed_low_priority + shed_sweep_only + shed_capacity;
  }
  ServiceCounters& operator+=(const ServiceCounters& other) noexcept;
  bool operator==(const ServiceCounters&) const = default;
};

/// Every ServiceCounters field in on-disk order — the one list the
/// checkpoint codec and operator+= walk.
inline constexpr std::uint64_t ServiceCounters::*kServiceCounterFields[] = {
    &ServiceCounters::offered,           &ServiceCounters::admitted,
    &ServiceCounters::pumped,            &ServiceCounters::shed_low_priority,
    &ServiceCounters::shed_sweep_only,   &ServiceCounters::shed_capacity,
    &ServiceCounters::sweeps,            &ServiceCounters::sweep_flagged,
};

inline ServiceCounters& ServiceCounters::operator+=(
    const ServiceCounters& other) noexcept {
  for (auto field : kServiceCounterFields) this->*field += other.*field;
  return *this;
}

/// Everything a checkpoint stores; the supervisor fills/consumes it.
struct ServiceCheckpointState {
  std::uint64_t wal_position = 0;
  /// core::ServiceTier at checkpoint time; load rejects values above
  /// kSweepOnly.
  std::uint32_t tier = 0;
  /// Shard identity (format v2). A checkpoint written by shard i of N
  /// refuses to restore into a supervisor configured as a different
  /// shard — a misdirected state directory must fail loudly, not decode
  /// quietly into the wrong partition. shard_count == 0 means "written
  /// by a v1 build / unknown"; identity is then not checked.
  std::uint32_t shard_id = 0;
  std::uint32_t shard_count = 0;
  /// One past the highest explicit transport seq ever offered (v2).
  /// Recovery needs it because fully-covered WAL segments are pruned:
  /// the redelivery frontier must survive even when the records that
  /// established it no longer exist on disk.
  std::uint64_t next_seq = 0;
  ServiceCounters counters;
  /// Admitted records (index < wal_position) not yet pumped, in offer
  /// order.
  std::vector<WalRecord> queue;
  /// core::serialize_stream_state blob.
  std::vector<std::byte> stream_state;
  /// service::DefenseScorer::serialize blob (format v3, section written
  /// only when non-empty — i.e. when DetectorOptions::defense is on).
  /// A v2/v1 checkpoint, or a v3 one written with the tier off, loads
  /// with this empty.
  std::vector<std::byte> defense_state;
};

/// Atomically commits `state` to `path`, durably unless the
/// SYBIL_IO_FSYNC knob opts out (io::SyncMode::kEnv — the machine-crash
/// recovery proof assumes the knob is on, its default; process-crash
/// recovery holds either way). All I/O goes through `vfs` (null →
/// io::default_vfs()); on any storage fault the temp file is removed
/// and the existing generation is untouched. Throws io::SnapshotError
/// (io::VfsError for storage faults). Takes the state by rvalue: its
/// detector blobs become container sections without a copy.
void save_service_checkpoint(const std::string& path,
                             ServiceCheckpointState&& state,
                             io::Vfs* vfs = nullptr);

/// Loads and fully validates one generation — including no trailing
/// bytes in the meta and queue sections and a tier no higher than
/// kSweepOnly; throws the matching typed io::SnapshotError on any
/// corruption (the supervisor catches it and falls back a generation).
ServiceCheckpointState load_service_checkpoint(const std::string& path);

/// "<dir>/ckpt-<20-digit position>.sybs".
std::string checkpoint_path(const std::string& dir, std::uint64_t position);

/// Checkpoint generations in `dir`, sorted by WAL position ascending.
std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir);

/// Deletes all but the newest `retain` generations through `vfs` (null
/// → io::default_vfs()); returns how many were removed.
std::uint64_t prune_checkpoints(const std::string& dir, std::size_t retain,
                                io::Vfs* vfs = nullptr);

}  // namespace sybil::service
