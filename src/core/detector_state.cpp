#include "core/detector_state.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>

#include "core/realtime_detector.h"
#include "core/stream_detector.h"
#include "io/container.h"
#include "io/error.h"

namespace sybil::core {

namespace {

using io::ByteReader;
using io::ByteWriter;
using io::SnapshotError;
using io::SnapshotErrorCode;

void check_version(std::uint32_t version) {
  // Exact match: v2 redefined the seen-by-time section (released-only
  // prune queue instead of the full accepted-seq heap) and v3 dropped
  // the sections restore now derives (watcher index, seen-seq set,
  // the reorder entries' second copy of their time), so an older blob
  // cannot be reinterpreted — and nothing writes one anymore.
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

void write_event(ByteWriter& w, const osn::Event& e) {
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

void write_features(ByteWriter& w, const SybilFeatures& f) {
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

// Encoded widths of the fixed-size records above and below, so
// save_stream can reserve its exact output size before writing. Each
// mirrors the write_* helper or loop it names; the state-codec tests
// check that the reservation comes out exact.
constexpr std::size_t kU64 = sizeof(std::uint64_t);
constexpr std::size_t kEventBytes =  // write_event
    sizeof(std::uint32_t) + 2 * sizeof(graph::NodeId) + sizeof(graph::Time);
constexpr std::size_t kAccountBytes =  // per account, before its friends
    osn::kLedgerBytes + kU64 + sizeof(std::uint32_t) + 2 * sizeof(std::uint8_t);
constexpr std::size_t kFlagBytes =  // per pending flag (write_features)
    sizeof(osn::NodeId) + 5 * sizeof(double) + sizeof(graph::Time);
constexpr std::size_t kBufferedBytes = kU64 + kEventBytes;
constexpr std::size_t kReleasedBytes = sizeof(graph::Time) + kU64;
constexpr std::size_t kDeadLetterBytes =
    kEventBytes + kU64 + sizeof(std::uint32_t);

/// Grants access to a std::priority_queue's protected container so the
/// exact heap array can be saved and restored — a restored queue pops
/// in the same order as the original, bit for bit (the osn simulator
/// checkpoint uses the same trick).
template <typename Q>
const typename Q::container_type& queue_container(const Q& q) {
  struct Access : Q {
    static const typename Q::container_type& get(const Q& queue) {
      return queue.*&Access::c;
    }
  };
  return Access::get(q);
}

template <typename Q>
typename Q::container_type& queue_container_mut(Q& q) {
  struct Access : Q {
    static typename Q::container_type& get(Q& queue) {
      return queue.*&Access::c;
    }
  };
  return Access::get(q);
}

}  // namespace

/// The one friend of StreamDetector / RealTimeDetector /
/// AdaptiveThresholdTuner: all member access happens in these statics.
struct DetectorStateAccess {
  // Each fact is written once. The watcher index mirrors first_friends,
  // the seen-seq set is the disjoint union of the buffered and the
  // released seqs, and a buffered entry's sort time is its event's
  // time — load_stream rebuilds all three (docs/FORMATS.md §5.5).
  static std::vector<std::byte> save_stream(const StreamDetector& d) {
    std::vector<std::uint64_t> edges(d.edges_.begin(), d.edges_.end());
    std::sort(edges.begin(), edges.end());
    const auto& reorder = queue_container(d.reorder_);

    std::size_t size = sizeof(kDetectorStateVersion) + kU64 +
                       d.accounts_.size() * kAccountBytes;
    for (const StreamDetector::AccountState& acc : d.accounts_) {
      size += acc.first_friends.size() * sizeof(osn::NodeId);
    }
    size += kU64 + edges.size() * kU64;
    size += kU64 + d.newly_flagged_.size() * kFlagBytes + kU64;
    size += kU64 + reorder.size() * kBufferedBytes;
    size += kU64 + d.released_.size() * kReleasedBytes;
    size += sizeof(graph::Time) + kU64 +
            d.dead_letters_.size() * kDeadLetterBytes;
    size += (7 + kStreamErrorCodeCount) * kU64;  // the trailing counters

    ByteWriter w;
    w.reserve(size);
    w.write(kDetectorStateVersion);

    w.write(static_cast<std::uint64_t>(d.accounts_.size()));
    for (const StreamDetector::AccountState& acc : d.accounts_) {
      osn::write_ledger(w, acc.ledger);
      w.write(static_cast<std::uint64_t>(acc.first_friends.size()));
      for (osn::NodeId f : acc.first_friends) w.write(f);
      w.write(acc.internal_links);
      w.write(static_cast<std::uint8_t>(acc.flagged ? 1 : 0));
      w.write(static_cast<std::uint8_t>(acc.banned ? 1 : 0));
    }

    w.write(static_cast<std::uint64_t>(edges.size()));
    for (std::uint64_t key : edges) w.write(key);

    w.write(static_cast<std::uint64_t>(d.newly_flagged_.size()));
    for (const FlagRecord& rec : d.newly_flagged_) {
      w.write(rec.account);
      write_features(w, rec.features);
      w.write(rec.flagged_at);
    }
    w.write(static_cast<std::uint64_t>(d.flagged_total_));

    w.write(static_cast<std::uint64_t>(reorder.size()));
    for (const StreamDetector::Buffered& b : reorder) {
      w.write(b.seq);
      write_event(w, b.event);
    }

    w.write(static_cast<std::uint64_t>(d.released_.size()));
    for (const auto& [time, seq] : d.released_) {
      w.write(time);
      w.write(seq);
    }

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
    return std::move(w).take();
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
    d.watchers_.assign(n_accounts, {});
    for (osn::NodeId u = 0; u < n_accounts; ++u) {
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

    auto& reorder = queue_container_mut(d.reorder_);
    reorder.resize(r.read_count(kBufferedBytes));
    for (auto& b : reorder) {
      b.seq = r.read<std::uint64_t>();
      b.event = read_event(r);
      StreamErrorCode reason;
      if (!d.structurally_valid(b.event, reason)) {
        reject("reorder-buffer event seq " + std::to_string(b.seq) +
               " fails validation: " + to_string(reason));
      }
    }
    if (!std::is_heap(reorder.begin(), reorder.end(), std::greater<>{})) {
      reject("reorder-buffer array is not a heap");
    }

    d.released_.resize(r.read_count(kReleasedBytes));
    for (auto& [time, seq] : d.released_) {
      time = r.read<graph::Time>();
      seq = r.read<std::uint64_t>();
    }
    if (!std::is_sorted(d.released_.begin(), d.released_.end())) {
      reject("released seqs are not in ascending (time, seq) order");
    }

    d.seen_seqs_.clear();
    d.seen_seqs_.reserve(reorder.size() + d.released_.size());
    const auto remember = [&](std::uint64_t seq) {
      if (!d.seen_seqs_.insert(seq)) {
        reject("seq " + std::to_string(seq) +
               " is both buffered and released, or twice in one");
      }
    };
    for (const StreamDetector::Buffered& b : reorder) remember(b.seq);
    for (const auto& entry : d.released_) remember(entry.second);

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

    w.write(static_cast<std::uint64_t>(d.carryover_.size()));
    for (osn::NodeId id : d.carryover_) w.write(id);
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

std::vector<std::byte> serialize_stream_state(const StreamDetector& d) {
  return DetectorStateAccess::save_stream(d);
}

void restore_stream_state(StreamDetector& d, std::span<const std::byte> blob) {
  DetectorStateAccess::load_stream(d, blob);
}

std::vector<std::byte> serialize_realtime_state(const RealTimeDetector& d) {
  return DetectorStateAccess::save_realtime(d);
}

}  // namespace sybil::core
