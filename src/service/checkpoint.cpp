#include "service/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "core/detector_options.h"
#include "core/metrics/instrument.h"
#include "io/container.h"
#include "io/error.h"
#include "service/wal.h"

namespace sybil::service {

namespace fs = std::filesystem;
using io::ByteReader;
using io::ByteWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

namespace {

// Section ids within the kServiceCheckpoint container. Id 2 held the
// unpumped queue in v1-v4 and id 4 a RealTimeDetector blob in v1-v3;
// neither is written or read, and neither id is reused.
constexpr std::uint32_t kSecMeta = 1;
constexpr std::uint32_t kSecStream = 3;
constexpr std::uint32_t kSecDefense = 5;

// The only version this build writes or reads (docs/FORMATS.md §5.4).
// v6 widened replay_from to cover the detector's in-flight events; v7
// stores the defense scorer's rank tier as scores only (scorer state v2);
// v8 stores the scorer as its graph and rank tier only (scorer state v3).
constexpr std::uint32_t kCheckpointVersion = 8;

}  // namespace

void save_service_checkpoint(const std::string& path,
                             ServiceCheckpointState&& state,
                             io::SectionWriter stream, io::Vfs* vfs) {
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
  meta.write(state.replay_from);
  writer.add_section(kSecMeta, std::move(meta).take());

  writer.add_section(kSecStream, std::move(stream));
  if (!state.defense_state.empty()) {
    writer.add_section(kSecDefense, std::move(state.defense_state));
  }
  // SyncMode::kEnv: durable by default; the SYBIL_IO_FSYNC knob can
  // turn sync off for throwaway state dirs (benches, crash sweeps).
  writer.commit(path, io::SyncMode::kEnv, vfs);
  SYBIL_METRIC_COUNT("service.checkpoint.saved", 1);
}

void save_service_checkpoint(const std::string& path,
                             ServiceCheckpointState&& state, io::Vfs* vfs) {
  io::SectionWriter stream = io::bytes_section(std::move(state.stream_state));
  save_service_checkpoint(path, std::move(state), std::move(stream), vfs);
}

ServiceCheckpointState load_service_checkpoint(const std::string& path) {
  SYBIL_METRIC_SCOPED_TIMER(span, "service.checkpoint.load");
  const io::ContainerReader reader(path, io::PayloadKind::kServiceCheckpoint);
  ServiceCheckpointState state;

  ByteReader meta(reader.section(kSecMeta));
  const auto version = meta.read<std::uint32_t>();
  if (version != kCheckpointVersion) {
    throw SnapshotError(SnapshotErrorCode::kUnsupportedVersion,
                        "service checkpoint v" + std::to_string(version) +
                            " is not the supported v" +
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
  state.shard_id = meta.read<std::uint32_t>();
  state.shard_count = meta.read<std::uint32_t>();
  state.next_seq = meta.read<std::uint64_t>();
  state.replay_from = meta.read<std::uint64_t>();
  if (!meta.exhausted()) {
    throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                        "trailing bytes after checkpoint meta section");
  }
  if (state.replay_from > state.wal_position) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "checkpoint replay_from " +
                            std::to_string(state.replay_from) +
                            " past wal_position " +
                            std::to_string(state.wal_position));
  }

  const auto stream = reader.section(kSecStream);
  state.stream_state.assign(stream.begin(), stream.end());
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
    const auto position = parse_state_file_name(
        entry.path().filename().string(), "ckpt-", ".sybs");
    if (position) out.emplace_back(*position, entry.path().string());
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
