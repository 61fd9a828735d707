#include "core/detector_state.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <utility>

#include "core/parallel.h"
#include "core/realtime_detector.h"
#include "core/stream_detector.h"
#include "io/container.h"
#include "io/crc32.h"
#include "io/error.h"

namespace sybil::core {

namespace {

using io::ByteReader;
using io::ByteWriter;
using io::SliceWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

void check_version(std::uint32_t version) {
  // Exact match: v3 dropped the sections restore derives (watcher
  // index, seen-seq set, the reorder entries' second copy of their
  // time) and v4 the in-flight events the WAL re-supplies (reorder
  // buffer, released list), so an older blob cannot be reinterpreted —
  // and nothing writes one anymore.
  if (version != kDetectorStateVersion) {
    throw SnapshotError(SnapshotErrorCode::kUnsupportedVersion,
                        "stream detector state v" +
                            std::to_string(version) +
                            " incompatible with supported v" +
                            std::to_string(kDetectorStateVersion));
  }
}

[[noreturn]] void reject(const std::string& what) {
  throw SnapshotError(SnapshotErrorCode::kFormatViolation, what);
}

void write_event(SliceWriter& w, const osn::Event& e) {
  w.write(static_cast<std::uint32_t>(e.type));
  w.write(e.actor);
  w.write(e.subject);
  w.write(e.time);
}

osn::Event read_event(ByteReader& r) {
  osn::Event e;
  e.type = static_cast<osn::EventType>(r.read<std::uint32_t>());
  e.actor = r.read<graph::NodeId>();
  e.subject = r.read<graph::NodeId>();
  e.time = r.read<graph::Time>();
  return e;
}

void write_features(SliceWriter& w, const SybilFeatures& f) {
  w.write(f.invite_rate_short);
  w.write(f.invite_rate_long);
  w.write(f.outgoing_accept_ratio);
  w.write(f.incoming_accept_ratio);
  w.write(f.clustering_coefficient);
}

SybilFeatures read_features(ByteReader& r) {
  SybilFeatures f;
  f.invite_rate_short = r.read<double>();
  f.invite_rate_long = r.read<double>();
  f.outgoing_accept_ratio = r.read<double>();
  f.incoming_accept_ratio = r.read<double>();
  f.clustering_coefficient = r.read<double>();
  return f;
}

void write_rule(ByteWriter& w, const ThresholdRule& rule) {
  w.write(rule.outgoing_accept_max);
  w.write(rule.invite_rate_min);
  w.write(rule.clustering_max);
  w.write(rule.min_requests);
}

// Encoded widths of the fixed-size records above and below, for the
// encoder's exact-size pass. Each mirrors the write_* helper or loop it
// names; the write pass's SliceWriters refuse any disagreement.
constexpr std::size_t kU64 = sizeof(std::uint64_t);
constexpr std::size_t kEventBytes =  // write_event
    sizeof(std::uint32_t) + 2 * sizeof(graph::NodeId) + sizeof(graph::Time);
constexpr std::size_t kAccountBytes =  // per account, before its friends
    osn::kLedgerBytes + kU64 + sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t);
constexpr std::size_t kFlagBytes =  // per pending flag (write_features)
    sizeof(osn::NodeId) + 5 * sizeof(double) + sizeof(graph::Time);
constexpr std::size_t kDeadLetterBytes =
    kEventBytes + kU64 + sizeof(std::uint32_t);
constexpr std::size_t kHeadBytes =  // version + account count
    sizeof(kDetectorStateVersion) + kU64;

/// Sorts `keys` ascending — the order std::sort gives — by LSD radix
/// sort, one byte per pass. One counting pass histograms all eight
/// digits, and a digit every key shares is skipped (edge keys over a
/// small id range leave most high bytes constant).
void radix_sort(std::vector<std::uint64_t>& keys) {
  if (keys.size() < 2) return;
  constexpr int kPasses = 8;
  std::array<std::array<std::size_t, 256>, kPasses> count{};
  for (const std::uint64_t k : keys) {
    for (int d = 0; d < kPasses; ++d) ++count[d][(k >> (8 * d)) & 0xFFu];
  }
  std::vector<std::uint64_t> scratch(keys.size());
  for (int d = 0; d < kPasses; ++d) {
    std::array<std::size_t, 256>& bucket = count[d];
    if (bucket[(keys[0] >> (8 * d)) & 0xFFu] == keys.size()) continue;
    std::size_t start = 0;
    for (std::size_t& c : bucket) start += std::exchange(c, start);
    for (const std::uint64_t k : keys) {
      scratch[bucket[(k >> (8 * d)) & 0xFFu]++] = k;
    }
    keys.swap(scratch);
  }
}

}  // namespace

/// The one friend of StreamDetector / RealTimeDetector /
/// AdaptiveThresholdTuner: all member access happens in these statics.
struct DetectorStateAccess {
  // Each fact is written once. The watcher index mirrors first_friends
  // (load_stream rebuilds it), and the in-flight events — the reorder
  // buffer, its seen seqs and the released list — are the WAL's to
  // re-supply through StreamDetector::restore_buffered
  // (docs/FORMATS.md §5.5).
  //
  // Byte layout, in pieces: the head (version, account count), the
  // account records in chunks of kStateAccountChunk, the sorted edge
  // keys, and the tail (pending flags, dead letters, counters).

  /// The exact-size pass: fills `offsets` with the start of every
  /// account chunk, then of the edge piece and of the tail; returns the
  /// total.
  static std::size_t size_stream(const StreamDetector& d,
                                 std::vector<std::size_t>& offsets) {
    const auto chunks = chunk_partition(d.accounts_.size(), kStateAccountChunk);
    offsets.clear();
    offsets.reserve(chunks.size() + 2);
    std::size_t at = kHeadBytes;
    for (const ChunkRange& c : chunks) {
      offsets.push_back(at);
      at += (c.end - c.begin) * kAccountBytes;
      for (std::size_t i = c.begin; i < c.end; ++i) {
        at += d.accounts_[i].first_friends.size() * sizeof(osn::NodeId);
      }
    }
    offsets.push_back(at);  // the edges
    at += kU64 + d.edges_.size() * kU64;
    offsets.push_back(at);  // the tail
    at += kU64 + d.newly_flagged_.size() * kFlagBytes + kU64;
    at += sizeof(graph::Time) + kU64 +
          d.dead_letters_.size() * kDeadLetterBytes;
    at += (7 + kStreamErrorCodeCount) * kU64;  // the trailing counters
    return at;
  }

  /// The write pass over `out` (exactly the size pass's total). Task 0
  /// of the parallel loop sorts and writes the edges — the longest
  /// task, so it is claimed first — and task c + 1 writes account chunk
  /// c; the head and the tail are written here.
  static std::uint32_t write_stream(const StreamDetector& d,
                                    const std::vector<std::size_t>& offsets,
                                    std::span<std::byte> out) {
    const std::size_t n_chunks = offsets.size() - 2;
    const auto piece = [&](std::size_t k) {
      const std::size_t end =
          k + 1 < offsets.size() ? offsets[k + 1] : out.size();
      return out.subspan(offsets[k], end - offsets[k]);
    };
    // crcs[k] is the CRC of piece k: account chunk k, then the edges.
    std::vector<std::uint32_t> crcs(n_chunks + 1);
    parallel_for(
        n_chunks + 1,
        [&](const ChunkRange& task) {
          for (std::size_t t = task.begin; t < task.end; ++t) {
            if (t == 0) {
              crcs[n_chunks] = write_edges(d, piece(n_chunks));
            } else {
              crcs[t - 1] = write_accounts(d, t - 1, piece(t - 1));
            }
          }
        },
        /*grain=*/1);

    SliceWriter head(out.first(kHeadBytes));
    head.write(kDetectorStateVersion);
    head.write(static_cast<std::uint64_t>(d.accounts_.size()));
    std::uint32_t crc = head.finish();
    for (std::size_t k = 0; k <= n_chunks; ++k) {
      crc = io::crc32_combine(crc, crcs[k], piece(k).size());
    }
    const auto tail = piece(n_chunks + 1);
    return io::crc32_combine(crc, write_tail(d, tail), tail.size());
  }

  static std::uint32_t write_accounts(const StreamDetector& d,
                                      std::size_t chunk,
                                      std::span<std::byte> out) {
    SliceWriter w(out);
    // Chunk `chunk` of chunk_partition(accounts, kStateAccountChunk).
    const std::size_t begin = chunk * kStateAccountChunk;
    const std::size_t end =
        std::min(begin + kStateAccountChunk, d.accounts_.size());
    for (std::size_t i = begin; i < end; ++i) {
      const StreamDetector::AccountState& acc = d.accounts_[i];
      osn::write_ledger(w, acc.ledger);
      w.write(static_cast<std::uint64_t>(acc.first_friends.size()));
      for (osn::NodeId f : acc.first_friends) w.write(f);
      w.write(acc.internal_links);
      w.write(static_cast<std::uint8_t>(acc.flagged ? 1 : 0));
      w.write(static_cast<std::uint8_t>(acc.banned ? 1 : 0));
    }
    return w.finish();
  }

  static std::uint32_t write_edges(const StreamDetector& d,
                                   std::span<std::byte> out) {
    std::vector<std::uint64_t> edges;
    d.edges_.append_keys(edges);
    radix_sort(edges);
    SliceWriter w(out);
    w.write(static_cast<std::uint64_t>(edges.size()));
    w.write_bytes(std::as_bytes(std::span<const std::uint64_t>(edges)));
    return w.finish();
  }

  static std::uint32_t write_tail(const StreamDetector& d,
                                  std::span<std::byte> out) {
    SliceWriter w(out);
    w.write(static_cast<std::uint64_t>(d.newly_flagged_.size()));
    for (const FlagRecord& rec : d.newly_flagged_) {
      w.write(rec.account);
      write_features(w, rec.features);
      w.write(rec.flagged_at);
    }
    w.write(static_cast<std::uint64_t>(d.flagged_total_));

    w.write(d.high_watermark_);
    w.write(static_cast<std::uint64_t>(d.dead_letters_.size()));
    for (const StreamDetector::DeadLetter& dl : d.dead_letters_) {
      write_event(w, dl.event);
      w.write(dl.seq);
      w.write(static_cast<std::uint32_t>(dl.reason));
    }
    w.write(d.next_auto_seq_);
    w.write(d.events_in_);
    w.write(d.applied_total_);
    w.write(d.deduped_total_);
    w.write(d.deadletter_total_);
    for (std::uint64_t c : d.deadletter_by_reason_) w.write(c);
    w.write(d.dead_letters_dropped_);
    w.write(d.banned_party_total_);
    return w.finish();
  }

  static void load_stream(StreamDetector& d, std::span<const std::byte> blob) {
    ByteReader r(blob);
    check_version(r.read<std::uint32_t>());

    const std::uint64_t n_accounts = r.read_count(kAccountBytes);
    d.accounts_.assign(n_accounts, StreamDetector::AccountState{});
    for (auto& acc : d.accounts_) {
      acc.ledger = osn::read_ledger(r);
      acc.first_friends.resize(r.read_count(sizeof(osn::NodeId)));
      for (auto& f : acc.first_friends) f = r.read<osn::NodeId>();
      acc.internal_links = r.read<std::uint32_t>();
      acc.flagged = r.read<std::uint8_t>() != 0;
      acc.banned = r.read<std::uint8_t>() != 0;
    }
    // The blob holds no dirty list: the first sweep after a restore
    // re-checks every account, a superset of the ids it would have held.
    d.dirty_.clear();
    d.watchers_.assign(n_accounts, {});
    for (osn::NodeId u = 0; u < n_accounts; ++u) {
      d.mark_dirty(u);
      for (osn::NodeId f : d.accounts_[u].first_friends) {
        if (f >= n_accounts) {
          reject("first friend " + std::to_string(f) + " of account " +
                 std::to_string(u) + " is not a known account");
        }
        d.watchers_[f].push_back(u);
      }
    }

    d.edges_.clear();
    const std::uint64_t n_edges = r.read_count(kU64);
    d.edges_.reserve(n_edges);
    for (std::uint64_t i = 0; i < n_edges; ++i) {
      d.edges_.insert(r.read<std::uint64_t>());
    }

    d.newly_flagged_.resize(r.read_count(kFlagBytes));
    for (auto& rec : d.newly_flagged_) {
      rec.account = r.read<osn::NodeId>();
      rec.features = read_features(r);
      rec.flagged_at = r.read<graph::Time>();
    }
    d.flagged_total_ = static_cast<std::size_t>(r.read<std::uint64_t>());

    d.reorder_.clear();
    d.released_.clear();
    d.seen_seqs_.clear();

    d.high_watermark_ = r.read<graph::Time>();
    d.dead_letters_.resize(r.read_count(kDeadLetterBytes));
    for (StreamDetector::DeadLetter& dl : d.dead_letters_) {
      dl.event = read_event(r);
      dl.seq = r.read<std::uint64_t>();
      const auto reason = r.read<std::uint32_t>();
      if (reason >= kStreamErrorCodeCount) {
        reject("dead-letter reason " + std::to_string(reason) +
               " out of range");
      }
      dl.reason = static_cast<StreamErrorCode>(reason);
    }
    d.next_auto_seq_ = r.read<std::uint64_t>();
    d.events_in_ = r.read<std::uint64_t>();
    d.applied_total_ = r.read<std::uint64_t>();
    d.deduped_total_ = r.read<std::uint64_t>();
    d.deadletter_total_ = r.read<std::uint64_t>();
    for (std::uint64_t& c : d.deadletter_by_reason_) {
      c = r.read<std::uint64_t>();
    }
    d.dead_letters_dropped_ = r.read<std::uint64_t>();
    d.banned_party_total_ = r.read<std::uint64_t>();
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "trailing bytes after stream detector state");
    }
  }

  static std::vector<std::byte> save_realtime(const RealTimeDetector& d) {
    ByteWriter w;
    w.write(kDetectorStateVersion);
    write_rule(w, d.detector_.rule());

    std::vector<osn::NodeId> flagged(d.flagged_.begin(), d.flagged_.end());
    std::sort(flagged.begin(), flagged.end());
    w.write(static_cast<std::uint64_t>(flagged.size()));
    for (osn::NodeId id : flagged) w.write(id);

    w.write(static_cast<std::uint64_t>(d.confirmations_));

    const AdaptiveThresholdTuner& t = d.tuner_;
    write_rule(w, t.rule_);
    for (std::uint64_t word : t.rng_.state()) w.write(word);
    const auto write_reservoir =
        [&](const AdaptiveThresholdTuner::Reservoir& res) {
          for (const std::vector<double>* v :
               {&res.invite_rate, &res.out_accept, &res.clustering}) {
            w.write(static_cast<std::uint64_t>(v->size()));
            for (double x : *v) w.write(x);
          }
        };
    write_reservoir(t.normal_);
    write_reservoir(t.sybil_);
    w.write(static_cast<std::uint64_t>(t.normal_seen_));
    w.write(static_cast<std::uint64_t>(t.sybil_seen_));
    return std::move(w).take();
  }
};

StreamStateEncoder::StreamStateEncoder(const StreamDetector& d)
    : d_(d), size_(DetectorStateAccess::size_stream(d, offsets_)) {}

std::uint32_t StreamStateEncoder::write(std::span<std::byte> out) const {
  if (out.size() != size_) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        "stream state is " + std::to_string(size_) +
                            " bytes, its slice " +
                            std::to_string(out.size()));
  }
  return DetectorStateAccess::write_stream(d_, offsets_, out);
}

std::vector<std::byte> serialize_stream_state(const StreamDetector& d) {
  const StreamStateEncoder encoder(d);
  std::vector<std::byte> blob(encoder.size());
  encoder.write(blob);
  return blob;
}

void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob) {
  DetectorStateAccess::load_stream(d, blob);
}

std::vector<std::byte> serialize_realtime_state(const RealTimeDetector& d) {
  return DetectorStateAccess::save_realtime(d);
}

}  // namespace sybil::core
