#include "core/detector_state.h"

#include <algorithm>
#include <array>
#include <cstdint>
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

void check_version(std::uint32_t version, const char* what) {
  // Exact match: v2 redefined the seen-by-time section (released-only
  // prune queue instead of the full accepted-seq heap), so a v1 blob
  // cannot be reinterpreted — and nothing writes v1 anymore.
  if (version != kDetectorStateVersion) {
    throw SnapshotError(SnapshotErrorCode::kUnsupportedVersion,
                        std::string(what) + " state v" +
                            std::to_string(version) +
                            " incompatible with supported v" +
                            std::to_string(kDetectorStateVersion));
  }
}

/// Bound for element counts read from untrusted blobs: any count a real
/// checkpoint produces is far below this; a corrupted count above it is
/// rejected before a multi-gigabyte allocation is attempted. ByteReader
/// still bounds-checks every element read.
constexpr std::uint64_t kSaneCount = std::uint64_t{1} << 32;

std::uint64_t read_count(ByteReader& r, const char* what) {
  const auto n = r.read<std::uint64_t>();
  if (n > kSaneCount) {
    throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                        std::string(what) + " count " + std::to_string(n) +
                            " implausibly large");
  }
  return n;
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

ThresholdRule read_rule(ByteReader& r) {
  ThresholdRule rule;
  rule.outgoing_accept_max = r.read<double>();
  rule.invite_rate_min = r.read<double>();
  rule.clustering_max = r.read<double>();
  rule.min_requests = r.read<std::uint32_t>();
  return rule;
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
constexpr std::size_t kBufferedBytes = sizeof(graph::Time) + kU64 + kEventBytes;
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
  static std::vector<std::byte> save_stream(const StreamDetector& d) {
    std::vector<std::uint64_t> edges(d.edges_.begin(), d.edges_.end());
    std::sort(edges.begin(), edges.end());
    const std::vector<std::uint64_t> seqs = d.seen_seqs_.sorted();
    const auto& reorder = queue_container(d.reorder_);

    std::size_t size = sizeof(kDetectorStateVersion) + kU64 +
                       d.accounts_.size() * kAccountBytes;
    for (const StreamDetector::AccountState& acc : d.accounts_) {
      size += acc.first_friends.size() * sizeof(osn::NodeId);
    }
    for (const auto& watchers : d.watchers_) {
      size += kU64 + watchers.size() * sizeof(osn::NodeId);
    }
    size += kU64 + edges.size() * kU64;
    size += kU64 + d.newly_flagged_.size() * kFlagBytes + kU64;
    size += kU64 + reorder.size() * kBufferedBytes;
    size += kU64 + seqs.size() * kU64;
    size += kU64 + d.released_.size() * (sizeof(graph::Time) + kU64);
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
    for (const auto& watchers : d.watchers_) {
      w.write(static_cast<std::uint64_t>(watchers.size()));
      for (osn::NodeId who : watchers) w.write(who);
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
      w.write(b.event.time);  // the entry's sort time (see Buffered)
      w.write(b.seq);
      write_event(w, b.event);
    }

    w.write(static_cast<std::uint64_t>(seqs.size()));
    for (std::uint64_t s : seqs) w.write(s);

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
    check_version(r.read<std::uint32_t>(), "stream detector");

    const std::uint64_t n_accounts = read_count(r, "account");
    d.accounts_.assign(n_accounts, StreamDetector::AccountState{});
    for (auto& acc : d.accounts_) {
      acc.ledger = osn::read_ledger(r);
      const std::uint64_t n_friends = read_count(r, "first-friend");
      acc.first_friends.resize(n_friends);
      for (auto& f : acc.first_friends) f = r.read<osn::NodeId>();
      acc.internal_links = r.read<std::uint32_t>();
      acc.flagged = r.read<std::uint8_t>() != 0;
      acc.banned = r.read<std::uint8_t>() != 0;
    }
    d.watchers_.assign(n_accounts, {});
    for (auto& watchers : d.watchers_) {
      const std::uint64_t n = read_count(r, "watcher");
      watchers.resize(n);
      for (auto& who : watchers) who = r.read<osn::NodeId>();
    }

    d.edges_.clear();
    const std::uint64_t n_edges = read_count(r, "edge");
    d.edges_.reserve(n_edges);
    for (std::uint64_t i = 0; i < n_edges; ++i) {
      d.edges_.insert(r.read<std::uint64_t>());
    }

    const std::uint64_t n_flags = read_count(r, "pending flag");
    d.newly_flagged_.resize(n_flags);
    for (auto& rec : d.newly_flagged_) {
      rec.account = r.read<osn::NodeId>();
      rec.features = read_features(r);
      rec.flagged_at = r.read<graph::Time>();
    }
    d.flagged_total_ = static_cast<std::size_t>(r.read<std::uint64_t>());

    auto& reorder = queue_container_mut(d.reorder_);
    const std::uint64_t n_buffered = read_count(r, "reorder-buffer");
    reorder.resize(n_buffered);
    for (auto& b : reorder) {
      const graph::Time time = r.read<graph::Time>();
      b.seq = r.read<std::uint64_t>();
      b.event = read_event(r);
      if (time != b.event.time) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "reorder-buffer entry time disagrees with its "
                            "event time");
      }
    }

    d.seen_seqs_.clear();
    const std::uint64_t n_seqs = read_count(r, "seen-seq");
    d.seen_seqs_.reserve(n_seqs);
    for (std::uint64_t i = 0; i < n_seqs; ++i) {
      d.seen_seqs_.insert(r.read<std::uint64_t>());
    }
    d.released_.clear();
    const std::uint64_t n_released = read_count(r, "released-seq");
    for (std::uint64_t i = 0; i < n_released; ++i) {
      const graph::Time time = r.read<graph::Time>();
      const std::uint64_t seq = r.read<std::uint64_t>();
      d.released_.emplace_back(time, seq);
    }

    d.high_watermark_ = r.read<graph::Time>();
    d.dead_letters_.clear();
    const std::uint64_t n_dead = read_count(r, "dead-letter");
    for (std::uint64_t i = 0; i < n_dead; ++i) {
      StreamDetector::DeadLetter dl;
      dl.event = read_event(r);
      dl.seq = r.read<std::uint64_t>();
      const auto reason = r.read<std::uint32_t>();
      if (reason >= kStreamErrorCodeCount) {
        throw SnapshotError(SnapshotErrorCode::kFormatViolation,
                            "dead-letter reason " + std::to_string(reason) +
                                " out of range");
      }
      dl.reason = static_cast<StreamErrorCode>(reason);
      d.dead_letters_.push_back(dl);
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

  static void load_realtime(RealTimeDetector& d,
                            std::span<const std::byte> blob) {
    ByteReader r(blob);
    check_version(r.read<std::uint32_t>(), "realtime detector");
    d.detector_.set_rule(read_rule(r));

    d.flagged_.clear();
    const std::uint64_t n_flagged = read_count(r, "flagged");
    d.flagged_.reserve(n_flagged);
    for (std::uint64_t i = 0; i < n_flagged; ++i) {
      d.flagged_.insert(r.read<osn::NodeId>());
    }
    const std::uint64_t n_carry = read_count(r, "carryover");
    d.carryover_.resize(n_carry);
    d.carryover_set_.clear();
    for (auto& id : d.carryover_) {
      id = r.read<osn::NodeId>();
      d.carryover_set_.insert(id);
    }
    d.confirmations_ = static_cast<std::size_t>(r.read<std::uint64_t>());

    AdaptiveThresholdTuner& t = d.tuner_;
    t.rule_ = read_rule(r);
    std::array<std::uint64_t, 4> rng_state;
    for (std::uint64_t& word : rng_state) word = r.read<std::uint64_t>();
    t.rng_ = stats::Rng::from_state(rng_state);
    const auto read_reservoir = [&](AdaptiveThresholdTuner::Reservoir& res) {
      for (std::vector<double>* v :
           {&res.invite_rate, &res.out_accept, &res.clustering}) {
        const std::uint64_t n = read_count(r, "reservoir");
        v->resize(n);
        for (double& x : *v) x = r.read<double>();
      }
    };
    read_reservoir(t.normal_);
    read_reservoir(t.sybil_);
    t.normal_seen_ = static_cast<std::size_t>(r.read<std::uint64_t>());
    t.sybil_seen_ = static_cast<std::size_t>(r.read<std::uint64_t>());
    if (!r.exhausted()) {
      throw SnapshotError(SnapshotErrorCode::kMalformedSection,
                          "trailing bytes after realtime detector state");
    }
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

void restore_realtime_state(RealTimeDetector& d,
                            std::span<const std::byte> blob) {
  DetectorStateAccess::load_realtime(d, blob);
}

}  // namespace sybil::core
