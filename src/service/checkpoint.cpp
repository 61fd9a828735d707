#include "service/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/detector_options.h"
#include "core/metrics/instrument.h"
#include "io/container.h"
#include "io/error.h"

namespace sybil::service {

namespace fs = std::filesystem;
using io::ByteReader;
using io::ByteWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

namespace {

// Section ids within the kServiceCheckpoint container.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecQueue = 2;
constexpr std::uint32_t kSecStream = 3;
constexpr std::uint32_t kSecRealtime = 4;
constexpr std::uint32_t kSecDefense = 5;

// v1: PR 5 single-instance layout. v2 appends the shard identity
// (shard_id/shard_count) and the redelivery frontier (next_seq) to the
// meta section; every other section is unchanged, so v1 blobs load with
// the new fields defaulted (shard_count 0 = identity unknown). v3 adds
// the optional kSecDefense section carrying the defense-scorer state;
// the meta layout is unchanged, and v1/v2 blobs load with it empty
// (docs/FORMATS.md §5.4).
constexpr std::uint32_t kCheckpointVersion = 3;

void require_exhausted(const ByteReader& r, const char* section) {
  if (!r.exhausted()) {
    throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                        std::string("trailing bytes after checkpoint ") +
                            section + " section");
  }
}

}  // namespace

void save_service_checkpoint(const std::string& path,
                             ServiceCheckpointState&& state,
                             io::Vfs* vfs) {
  SYBIL_METRIC_SCOPED_TIMER(span, "service.checkpoint.save");
  io::ContainerWriter writer(io::PayloadKind::kServiceCheckpoint);

  ByteWriter meta;
  meta.write(kCheckpointVersion);
  meta.write(state.tier);
  meta.write(state.wal_position);
  for (auto field : kServiceCounterFields) meta.write(state.counters.*field);
  meta.write(state.shard_id);
  meta.write(state.shard_count);
  meta.write(state.next_seq);
  writer.add_section(kSecMeta, std::move(meta).take());

  ByteWriter queue;
  queue.write(static_cast<std::uint64_t>(state.queue.size()));
  for (const WalRecord& r : state.queue) {
    queue.write(r.index);
    queue.write(r.seq);
    queue.write(static_cast<std::uint32_t>(r.event.type));
    queue.write(r.event.actor);
    queue.write(r.event.subject);
    queue.write(r.event.time);
    queue.write(r.flags);
  }
  writer.add_section(kSecQueue, std::move(queue).take());

  writer.add_section(kSecStream, std::move(state.stream_state));
  writer.add_section(kSecRealtime, std::move(state.realtime_state));
  if (!state.defense_state.empty()) {
    writer.add_section(kSecDefense, std::move(state.defense_state));
  }
  // SyncMode::kEnv: durable by default; the SYBIL_IO_FSYNC knob can
  // turn sync off for throwaway state dirs (benches, crash sweeps).
  writer.commit(path, io::SyncMode::kEnv, vfs);
  SYBIL_METRIC_COUNT("service.checkpoint.saved", 1);
}

ServiceCheckpointState load_service_checkpoint(const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "service.checkpoint.load");
  const io::ContainerReader reader(path, io::PayloadKind::kServiceCheckpoint);
  ServiceCheckpointState state;

  ByteReader meta(reader.section(kSecMeta));
  const auto version = meta.read<std::uint32_t>();
  if (version > kCheckpointVersion) {
    throw SnapshotError(SnapshotErrorCode::kUnsupportedVersion,
                        "service checkpoint v" + std::to_string(version) +
                            " newer than supported v" +
                            std::to_string(kCheckpointVersion));
  }
  state.tier = meta.read<std::uint32_t>();
  if (state.tier > static_cast<std::uint32_t>(core::ServiceTier::kSweepOnly)) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "checkpoint tier " + std::to_string(state.tier) +
                            " out of range");
  }
  state.wal_position = meta.read<std::uint64_t>();
  for (auto field : kServiceCounterFields) {
    state.counters.*field = meta.read<std::uint64_t>();
  }
  if (version >= 2) {
    state.shard_id = meta.read<std::uint32_t>();
    state.shard_count = meta.read<std::uint32_t>();
    state.next_seq = meta.read<std::uint64_t>();
  }
  require_exhausted(meta, "meta");

  ByteReader queue(reader.section(kSecQueue));
  const auto n = queue.read<std::uint64_t>();
  if (n > (std::uint64_t{1} << 32)) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "checkpoint queue count implausibly large");
  }
  state.queue.resize(n);
  for (WalRecord& r : state.queue) {
    r.index = queue.read<std::uint64_t>();
    r.seq = queue.read<std::uint64_t>();
    r.event.type = static_cast<osn::EventType>(queue.read<std::uint32_t>());
    r.event.actor = queue.read<graph::NodeId>();
    r.event.subject = queue.read<graph::NodeId>();
    r.event.time = queue.read<graph::Time>();
    r.flags = queue.read<std::uint32_t>();
  }
  require_exhausted(queue, "queue");

  const auto stream = reader.section(kSecStream);
  state.stream_state.assign(stream.begin(), stream.end());
  const auto realtime = reader.section(kSecRealtime);
  state.realtime_state.assign(realtime.begin(), realtime.end());
  if (reader.has_section(kSecDefense)) {
    const auto defense = reader.section(kSecDefense);
    state.defense_state.assign(defense.begin(), defense.end());
  }
  SYBIL_METRIC_COUNT("service.checkpoint.loaded", 1);
  return state;
}

std::string checkpoint_path(const std::string& dir, std::uint64_t position) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020llu.sybs",
                static_cast<unsigned long long>(position));
  return dir + "/" + buf;
}

std::vector<std::pair<std::uint64_t, std::string>> list_checkpoints(
    const std::string& dir) {
  std::vector<std::pair<std::uint64_t, std::string>> out;
  if (!fs::exists(dir)) return out;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.size() != 30 || name.rfind("ckpt-", 0) != 0 ||
        name.substr(25) != ".sybs") {
      continue;
    }
    const std::string digits = name.substr(5, 20);
    if (digits.find_first_not_of("0123456789") != std::string::npos) continue;
    out.emplace_back(std::stoull(digits), entry.path().string());
  }
  if (ec) {
    throw SnapshotError(SnapshotErrorCode::kOpenFailed,
                        "cannot list checkpoint directory " + dir);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::uint64_t prune_checkpoints(const std::string& dir, std::size_t retain,
                                io::Vfs* vfs) {
  if (vfs == nullptr) vfs = io::default_vfs();
  const auto generations = list_checkpoints(dir);
  std::uint64_t removed = 0;
  if (generations.size() <= retain) return removed;
  for (std::size_t i = 0; i + retain < generations.size(); ++i) {
    if (vfs->remove(generations[i].second)) ++removed;
  }
  if (removed > 0) {
    SYBIL_METRIC_COUNT("service.checkpoint.pruned", removed);
  }
  return removed;
}

}  // namespace sybil::service
