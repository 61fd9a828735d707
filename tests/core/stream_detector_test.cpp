#include "core/stream_detector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/detector_state.h"
#include "core/features.h"
#include "core/metrics/instrument.h"
#include "core/reorder_calendar.h"
#include "osn/simulator.h"

#if SYBIL_METRICS_COMPILED
#include "core/metrics/metrics.h"
#endif

namespace sybil::core {
namespace {

using osn::EventType;

/// Zero watermark: ingest() applies a nondecreasing-time feed event by
/// event, so a test can read the features between any two calls.
DetectorOptions applied_on_arrival(const ThresholdRule& rule = {}) {
  DetectorOptions o;
  o.rule = rule;
  o.ingest.watermark_hours = 0.0;
  return o;
}

/// A detector fed log-convention events in nondecreasing time order.
class Feed {
 public:
  explicit Feed(const ThresholdRule& rule = {})
      : det_(applied_on_arrival(rule)) {}

  void sent(osn::NodeId from, osn::NodeId to, graph::Time t) {
    det_.ingest({EventType::kRequestSent, from, to, t});
  }
  /// `from`'s request was accepted by `to`; the log's actor answered.
  void accepted(osn::NodeId from, osn::NodeId to, graph::Time t) {
    det_.ingest({EventType::kRequestAccepted, to, from, t});
  }
  void rejected(osn::NodeId from, osn::NodeId to, graph::Time t) {
    det_.ingest({EventType::kRequestRejected, to, from, t});
  }
  void friendship(osn::NodeId u, osn::NodeId v, graph::Time t) {
    det_.ingest({EventType::kFriendshipSeeded, u, v, t});
  }
  void banned(osn::NodeId who, graph::Time t) {
    det_.ingest({EventType::kAccountBanned, who, who, t});
  }

  StreamDetector& operator*() noexcept { return det_; }
  StreamDetector* operator->() noexcept { return &det_; }

 private:
  StreamDetector det_;
};

TEST(StreamDetector, CountersTrackEvents) {
  Feed det;
  det.sent(0, 1, 0.5);
  det.sent(0, 2, 0.6);
  det.accepted(0, 1, 1.0);
  det.rejected(0, 2, 1.5);
  const SybilFeatures f = det->features(0);
  EXPECT_DOUBLE_EQ(f.outgoing_accept_ratio, 0.5);
  EXPECT_DOUBLE_EQ(f.invite_rate_short, 2.0);
  EXPECT_DOUBLE_EQ(det->features(1).incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(det->features(2).incoming_accept_ratio, 0.0);
}

// Any finite time is a valid event time: the ledger's -1 defaults must
// not read as "no send yet" when the sends themselves are negative.
/// A stamp is the fleet's clock: it moves the watermark like an event
/// time, even on a record that is itself rejected, and a detector fed
/// no stamp keeps its own clock.
TEST(StreamDetector, StampMovesTheWatermarkLikeAnEventTime) {
  const osn::Event first{EventType::kRequestSent, 1, 2, 10.0};
  const osn::Event self{EventType::kRequestSent, 3, 3, 99.0};  // rejected
  const osn::Event late{EventType::kRequestSent, 4, 5, 40.0};
  StreamDetector stamped;
  stamped.ingest(first, 0, 10.0);
  stamped.ingest(self, 1, 100.0);
  stamped.ingest(late, 2, 100.0);
  StreamDetector own;
  own.ingest(first, 0);
  own.ingest(self, 1);
  own.ingest(late, 2);
  EXPECT_EQ(stamped.applied_total(), 1u);  // t=10 released at low 52
  EXPECT_EQ(stamped.buffered(), 0u);
  EXPECT_EQ(stamped.deadletter_by_reason(StreamErrorCode::kSelfReferential),
            1u);
  EXPECT_EQ(stamped.deadletter_by_reason(StreamErrorCode::kTimeRegression),
            1u);
  EXPECT_EQ(own.applied_total(), 0u);  // low is -8: both stay buffered
  EXPECT_EQ(own.buffered(), 2u);
  EXPECT_EQ(own.deadletter_by_reason(StreamErrorCode::kTimeRegression), 0u);
}

TEST(StreamDetector, RatesAtNegativeTimesMatchPositiveOnes) {
  Feed det;
  det.sent(0, 1, -99.5);
  det.sent(0, 2, -95.5);
  det.sent(4, 1, -0.5);
  det.sent(3, 1, 100.5);
  det.sent(3, 2, 104.5);
  EXPECT_EQ(det->features(0).invite_rate_long, 0.4);
  EXPECT_EQ(det->features(0).invite_rate_long,
            det->features(3).invite_rate_long);
  EXPECT_EQ(det->features(0).invite_rate_short,
            det->features(3).invite_rate_short);
  EXPECT_EQ(det->features(4).invite_rate_short, 1.0);
  EXPECT_EQ(det->features(4).invite_rate_long, 1.0);
}

TEST(StreamDetector, UnknownAccountHasBenignDefaults) {
  StreamDetector det;
  const SybilFeatures f = det.features(42);
  EXPECT_DOUBLE_EQ(f.outgoing_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.invite_rate_short, 0.0);
}

TEST(StreamDetector, ClusteringTracksTriangles) {
  Feed det;
  // Node 0 befriends 1, 2, 3; then 1-2 links: cc = 1/3.
  det.friendship(0, 1, 1.0);
  det.friendship(0, 2, 2.0);
  det.friendship(0, 3, 3.0);
  EXPECT_DOUBLE_EQ(det->features(0).clustering_coefficient, 0.0);
  det.friendship(1, 2, 4.0);
  EXPECT_NEAR(det->features(0).clustering_coefficient, 1.0 / 3.0, 1e-12);
  // Existing link counted when the friend attaches afterwards: 4 joins
  // 0's set already linked to 3.
  det.friendship(3, 4, 5.0);
  det.friendship(0, 4, 6.0);
  // first friends = {1,2,3,4}; links among them: (1,2), (3,4) → 2/C(4,2).
  EXPECT_NEAR(det->features(0).clustering_coefficient, 2.0 / 6.0, 1e-12);
}

TEST(StreamDetector, FirstFriendsPrefixIsBounded) {
  Feed det;
  constexpr auto k = static_cast<osn::NodeId>(kFirstFriends);
  for (osn::NodeId v = 1; v <= k + 10; ++v) {
    det.friendship(0, v, static_cast<double>(v));
  }
  // Only friends 1..k are watched; a late link between two friends past
  // the prefix must not change node 0's clustering.
  det.friendship(k + 5, k + 6, 100.0);
  EXPECT_DOUBLE_EQ(det->features(0).clustering_coefficient, 0.0);
  det.friendship(1, 2, 101.0);
  EXPECT_NEAR(det->features(0).clustering_coefficient,
              2.0 / (static_cast<double>(k) * (k - 1)), 1e-12);
}

TEST(StreamDetector, DuplicateEdgesIgnored) {
  Feed det;
  det.friendship(0, 1, 1.0);
  det.friendship(0, 2, 2.0);
  det.friendship(1, 2, 3.0);
  det.friendship(2, 1, 4.0);  // duplicate, reversed
  EXPECT_NEAR(det->features(0).clustering_coefficient, 1.0, 1e-12);
}

TEST(StreamDetector, FlagsBurstySenderOnce) {
  Feed det;
  // 60 invites in one hour, ~25% accepted, no mutual friends.
  for (int i = 0; i < 60; ++i) {
    det.sent(0, static_cast<osn::NodeId>(i + 1), 0.3);
  }
  for (int i = 0; i < 60; ++i) {
    if (i % 4 == 0) {
      det.accepted(0, static_cast<osn::NodeId>(i + 1), 0.8);
    } else {
      det.rejected(0, static_cast<osn::NodeId>(i + 1), 0.8);
    }
  }
  const FlagBatch flagged = det->take_flagged();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].account, 0u);
  // The rule fires mid-burst, while the invites are still going out.
  EXPECT_DOUBLE_EQ(flagged[0].flagged_at, 0.3);
  EXPECT_LT(flagged[0].features.outgoing_accept_ratio, 0.5);
  EXPECT_TRUE(det->take_flagged().empty());  // reported once
  EXPECT_EQ(det->flagged_total(), 1u);
}

TEST(StreamDetector, BannedAccountsNeverFlagged) {
  Feed det;
  det.banned(0, 0.0);
  for (int i = 0; i < 60; ++i) {
    det.sent(0, static_cast<osn::NodeId>(i + 1), 0.3);
    det.rejected(0, static_cast<osn::NodeId>(i + 1), 0.5);
  }
  EXPECT_TRUE(det->take_flagged().empty());
}

/// The streaming features must agree EXACTLY with the batch
/// FeatureExtractor when fed the same history — the property that lets
/// a deployment trust either path. The log is not time-sorted (seeded
/// friendships go back in time, responses land after later requests),
/// so the watermark covers its largest inversion: then nothing is
/// quarantined and the reorder buffer applies every event in time order.
TEST(StreamDetector, ReplayMatchesBatchExtractor) {
  // A logged network exercising every event type: seeded friendships,
  // mixed accept/reject outcomes, censored requests via a mid-stream ban.
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    osn::Account a;
    a.kind = i < 20 ? osn::AccountKind::kSybil : osn::AccountKind::kNormal;
    net.add_account(a);
  }
  // Seeded friendships.
  for (int i = 0; i < 150; ++i) {
    net.add_friendship(static_cast<osn::NodeId>(rng.uniform_index(200)),
                       static_cast<osn::NodeId>(rng.uniform_index(200)),
                       -1.0 * static_cast<double>(i));
  }
  // Requests answered with mixed outcomes, plus bans mid-stream.
  for (double t = 0.0; t < 100.0; t += 1.0) {
    for (int k = 0; k < 30; ++k) {
      const auto from = static_cast<osn::NodeId>(rng.uniform_index(200));
      const auto to = static_cast<osn::NodeId>(rng.uniform_index(200));
      net.send_request(from, to, t + rng.uniform(),
                       t + 1.0 + rng.uniform(10.0, 20.0));
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.5);
    });
    if (t == 50.0) net.ban(7, t);
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.5);
  });

  DetectorOptions opts;
  opts.ingest.watermark_hours = net.log().max_inversion_hours();
  StreamDetector stream(opts);
  const auto& events = net.log().events();
  for (std::size_t i = 0; i < events.size(); ++i) stream.ingest(events[i], i);
  stream.finish();
  EXPECT_EQ(stream.events_in(), events.size());
  EXPECT_EQ(stream.applied_total(), events.size());
  EXPECT_EQ(stream.deduped_total(), 0u);
  EXPECT_EQ(stream.deadletter_total(), 0u);
  EXPECT_EQ(stream.buffered(), 0u);

  const FeatureExtractor batch(net);
  for (osn::NodeId id = 0; id < 200; ++id) {
    const SybilFeatures a = batch.extract(id);
    const SybilFeatures b = stream.features(id);
    ASSERT_DOUBLE_EQ(a.invite_rate_short, b.invite_rate_short) << id;
    ASSERT_DOUBLE_EQ(a.invite_rate_long, b.invite_rate_long) << id;
    ASSERT_DOUBLE_EQ(a.outgoing_accept_ratio, b.outgoing_accept_ratio) << id;
    ASSERT_DOUBLE_EQ(a.incoming_accept_ratio, b.incoming_accept_ratio) << id;
    ASSERT_DOUBLE_EQ(a.clustering_coefficient, b.clustering_coefficient)
        << id;
  }
}

/// A late request referencing an already-banned account (the ban won
/// the race against an in-flight request) must not mutate the banned
/// account's state: the banned side is frozen, the live side updates.
TEST(StreamDetector, BannedPartyEventFreezesBannedSideOnly) {
  Feed det;
  det.sent(0, 1, 0.5);
  det.banned(0, 0.5);
  EXPECT_EQ(det->banned_party_total(), 0u);

  // The bot's client keeps sending after the ban landed.
  det.sent(0, 2, 1.0);
  EXPECT_EQ(det->banned_party_total(), 1u);
  // Sender's ledger frozen at one send; recipient still counted it.
  EXPECT_DOUBLE_EQ(det->features(0).invite_rate_short, 1.0);
  EXPECT_DOUBLE_EQ(det->features(2).incoming_accept_ratio, 0.0);

  // A response for the pre-ban request arrives after the ban: the live
  // recipient's incoming-accept counters update, the banned sender's
  // outgoing ones do not, and no edge materializes.
  det.accepted(0, 1, 1.5);
  EXPECT_EQ(det->banned_party_total(), 2u);
  // Frozen: the banned sender's accept was never counted (0 of 1 sent).
  EXPECT_DOUBLE_EQ(det->features(0).outgoing_accept_ratio, 0.0);
  EXPECT_DOUBLE_EQ(det->features(1).incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(det->features(1).clustering_coefficient, 0.0);
  EXPECT_TRUE(det->take_flagged().empty());
}

/// In-order ingest() with unique seqs through the reorder buffer is
/// behaviourally identical to applying each event on arrival (zero
/// watermark): same features, nothing quarantined.
TEST(StreamDetector, InOrderIngestMatchesReplay) {
  osn::EventLog log;
  log.append({EventType::kFriendshipSeeded, 0, 1, 0.5});
  log.append({EventType::kRequestSent, 2, 3, 1.0});
  log.append({EventType::kRequestSent, 2, 4, 1.1});
  log.append({EventType::kRequestAccepted, 3, 2, 2.0});
  log.append({EventType::kRequestRejected, 4, 2, 2.1});
  log.append({EventType::kAccountBanned, 4, 4, 2.3});
  const auto& events = log.events();

  StreamDetector on_arrival(applied_on_arrival());
  StreamDetector buffered;  // 48 h watermark holds every event back
  for (std::size_t i = 0; i < events.size(); ++i) {
    on_arrival.ingest(events[i], i);
    buffered.ingest(events[i], i);
  }
  EXPECT_EQ(on_arrival.buffered(), 0u);
  EXPECT_EQ(buffered.buffered(), events.size());
  buffered.finish();

  for (const StreamDetector* det : {&on_arrival, &buffered}) {
    EXPECT_EQ(det->events_in(), events.size());
    EXPECT_EQ(det->applied_total(), events.size());
    EXPECT_EQ(det->deduped_total(), 0u);
    EXPECT_EQ(det->deadletter_total(), 0u);
    EXPECT_EQ(det->buffered(), 0u);
  }
  for (osn::NodeId id = 0; id <= 4; ++id) {
    const SybilFeatures a = on_arrival.features(id);
    const SybilFeatures b = buffered.features(id);
    EXPECT_DOUBLE_EQ(a.invite_rate_short, b.invite_rate_short) << id;
    EXPECT_DOUBLE_EQ(a.outgoing_accept_ratio, b.outgoing_accept_ratio) << id;
    EXPECT_DOUBLE_EQ(a.incoming_accept_ratio, b.incoming_accept_ratio) << id;
    EXPECT_DOUBLE_EQ(a.clustering_coefficient, b.clustering_coefficient)
        << id;
  }
  // Not vacuous: the ledgers did move.
  EXPECT_DOUBLE_EQ(buffered.features(2).outgoing_accept_ratio, 0.5);
}

/// Auto-assigned sequence numbers never repeat, so kAutoSeq events are
/// exempt from duplicate suppression by construction.
TEST(StreamDetector, AutoSeqEventsAreNeverDeduplicated) {
  StreamDetector det;
  const osn::Event e{osn::EventType::kRequestSent, 0, 1, 1.0};
  det.ingest(e);
  det.ingest(e);
  det.finish();
  EXPECT_EQ(det.applied_total(), 2u);
  EXPECT_EQ(det.deduped_total(), 0u);
  EXPECT_DOUBLE_EQ(det.features(0).invite_rate_short, 2.0);
}

/// A release after finish() can sort before entries finish() drained
/// into the released list; it must still be pruned once the watermark
/// passes it, so a later redelivery is a time regression — as it is
/// without the finish() — rather than a duplicate.
TEST(StreamDetector, ReleaseAfterFinishIsPrunedInTimeOrder) {
  for (const bool finish_first : {false, true}) {
    SCOPED_TRACE(finish_first ? "with finish()" : "without finish()");
    StreamDetector det;  // 48 h watermark
    const auto request_at = [](double t) {
      return osn::Event{osn::EventType::kRequestSent, 1, 2, t};
    };
    for (std::uint64_t t = 52; t <= 100; ++t) {
      det.ingest(request_at(static_cast<double>(t)), t);
    }
    if (finish_first) det.finish();
    det.ingest(request_at(60.0), 200);   // buffered: 60 > 100 - 48
    det.ingest(request_at(130.0), 201);  // low watermark 82 releases it
    det.ingest(request_at(60.0), 200);   // the redelivery
    EXPECT_EQ(det.deduped_total(), 0u);
    EXPECT_EQ(det.deadletter_by_reason(StreamErrorCode::kTimeRegression), 1u);
  }
}

/// The reorder contract as a test-local reference: a (time, seq)
/// priority queue. Each accepted event is pushed, the high watermark
/// rises, and every entry at or below the low watermark is released to
/// `engine`, a detector that applies each event it is handed at once.
/// Dedup state is pruned as the detector's is: released seqs below the
/// low watermark are forgotten.
class ReorderOracle {
 public:
  ReorderOracle(double watermark, const ThresholdRule& rule)
      : watermark_(watermark), engine_([&rule] {
          DetectorOptions o;
          o.rule = rule;
          // Holds nothing back past finish() and regresses nothing: the
          // oracle decides what is released, and when.
          o.ingest.watermark_hours = std::numeric_limits<double>::max();
          return o;
        }()) {}

  void ingest(const osn::Event& e, std::uint64_t seq) {
    if (!seen_.insert(seq).second) {
      ++deduped_;
      return;
    }
    if (e.time < high_ - watermark_) {
      seen_.erase(seq);
      ++regressions_;
      return;
    }
    queue_.push(Entry{e.time, seq, e});
    buffered_seqs_.insert(seq);
    high_ = std::max(high_, e.time);
    const double low = high_ - watermark_;
    release_through(low);
    while (!released_.empty() && released_.begin()->first < low) {
      seen_.erase(released_.begin()->second);
      released_.erase(released_.begin());
    }
  }
  void finish() {
    release_through(std::numeric_limits<double>::infinity());
  }

  double high() const { return high_; }
  std::uint64_t applied() const { return applied_; }
  std::uint64_t deduped() const { return deduped_; }
  std::uint64_t regressions() const { return regressions_; }
  std::size_t buffered() const { return queue_.size(); }
  std::uint64_t oldest_buffered_seq() const {
    return buffered_seqs_.empty() ? StreamDetector::kAutoSeq
                                  : *buffered_seqs_.begin();
  }
  StreamDetector& engine() { return engine_; }

 private:
  struct Entry {
    double time;
    std::uint64_t seq;
    osn::Event event;
    bool operator>(const Entry& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };
  void release_through(double low) {
    while (!queue_.empty() && queue_.top().time <= low) {
      const Entry top = queue_.top();
      queue_.pop();
      buffered_seqs_.erase(top.seq);
      released_.emplace(top.time, top.seq);
      ++applied_;
      engine_.ingest(top.event);
      engine_.finish();
    }
  }

  double watermark_;
  double high_ = -std::numeric_limits<double>::infinity();
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::set<std::uint64_t> buffered_seqs_;
  std::set<std::uint64_t> seen_;
  std::set<std::pair<double, std::uint64_t>> released_;
  StreamDetector engine_;
  std::uint64_t applied_ = 0;
  std::uint64_t deduped_ = 0;
  std::uint64_t regressions_ = 0;
};

/// Flags easily, so the flag stream (in apply order) pins the order.
ThresholdRule eager_rule() {
  ThresholdRule rule;
  rule.invite_rate_min = 3.0;
  rule.outgoing_accept_max = 0.6;
  rule.clustering_max = 0.5;
  rule.min_requests = 3;
  return rule;
}

void expect_same_features(const SybilFeatures& got, const SybilFeatures& want,
                          osn::NodeId id) {
  EXPECT_EQ(got.invite_rate_short, want.invite_rate_short) << id;
  EXPECT_EQ(got.invite_rate_long, want.invite_rate_long) << id;
  EXPECT_EQ(got.outgoing_accept_ratio, want.outgoing_accept_ratio) << id;
  EXPECT_EQ(got.incoming_accept_ratio, want.incoming_accept_ratio) << id;
  EXPECT_EQ(got.clustering_coefficient, want.clustering_coefficient) << id;
}

/// Checks `det` against the oracle after one step; `e` names the
/// accounts whose features it compares. Returns false once the test has
/// failed, so a stream stops at its first divergence.
bool expect_matches_oracle(StreamDetector& det, ReorderOracle& oracle,
                           const osn::Event& e) {
  EXPECT_EQ(det.applied_total(), oracle.applied());
  EXPECT_EQ(det.buffered(), oracle.buffered());
  EXPECT_EQ(det.oldest_buffered_seq(), oracle.oldest_buffered_seq());
  EXPECT_EQ(det.deduped_total(), oracle.deduped());
  EXPECT_EQ(det.deadletter_total(), oracle.regressions());
  EXPECT_EQ(det.deadletter_by_reason(StreamErrorCode::kTimeRegression),
            oracle.regressions());
  EXPECT_EQ(det.events_in(), det.applied_total() + det.deduped_total() +
                                 det.deadletter_total() + det.buffered());
  for (const osn::NodeId id : {e.actor, e.subject}) {
    expect_same_features(det.features(id), oracle.engine().features(id), id);
  }
  const FlagBatch got = det.take_flagged();
  const FlagBatch want = oracle.engine().take_flagged();
  EXPECT_EQ(got.ids(), want.ids());
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    EXPECT_EQ(got[i].flagged_at, want[i].flagged_at);
    expect_same_features(got[i].features, want[i].features, got[i].account);
  }
  return !::testing::Test::HasFailure();
}

/// A seeded hostile feed around `offset` for watermark `w`: jitter
/// back past the window (regressions), redeliveries, exact ties with
/// the low watermark, times on and beside the calendar's bucket
/// boundaries near both watermarks, high-watermark jumps far beyond W,
/// and bans, whose place in the apply order changes what the banned
/// side records. Odd seeds advance ~1 bucket per event, even seeds put
/// ~10 events in each bucket.
class HostileFeed {
 public:
  HostileFeed(std::uint64_t seed, double w, double offset)
      : rng_(seed),
        w_(w),
        base_(offset),
        step_(w > 0.0 ? w / (seed % 2 == 0 ? 2560.0 : 128.0) : 0.01) {}

  /// The next (event, seq). `high` is the oracle's high watermark.
  std::pair<osn::Event, std::uint64_t> next(double high) {
    if (!sent_.empty() && chance(0.05)) {
      return sent_[pick(0, sent_.size() - 1)];  // a redelivery
    }
    // Steps of a few ulps at least, so huge offsets still advance.
    const double ulp = std::nextafter(std::abs(base_), HUGE_VAL) -
                       std::abs(base_);
    base_ += uniform(0.0, std::max(step_, 3.0 * ulp));
    if (chance(0.01) && std::abs(base_) < 1e304) {
      base_ += 1000.0 * (w_ > 0.0 ? std::min(w_, 1e300) : 1.0);
    }
    double t = base_ - uniform(0.0, 1.2 * w_);
    // The calendar's buckets per hour: W / 256 wide.
    const double scale = w_ > 0.0 ? 256.0 / w_ : 0.0;
    const double anchor =
        std::isfinite(high) && chance(0.5) ? high - w_ : base_;
    const double boundary =
        scale > 0.0 ? std::floor(anchor * scale) / scale : anchor;
    const double roll = uniform(0.0, 1.0);
    if (roll < 0.1) {
      t = base_;
    } else if (roll < 0.15 && std::isfinite(high)) {
      t = high - w_;  // exactly the low watermark
    } else if (roll < 0.25 && std::isfinite(boundary)) {
      const double toward = chance(0.5) ? 1.0 : -1.0;
      t = chance(0.3) ? boundary
                      : std::nextafter(boundary, toward * HUGE_VAL);
    }
    const auto a = static_cast<osn::NodeId>(pick(0, kAccounts - 1));
    auto b = static_cast<osn::NodeId>(pick(0, kAccounts - 2));
    if (b >= a) ++b;
    const double kind = uniform(0.0, 1.0);
    osn::Event e{EventType::kRequestSent, a, b, t};
    if (kind < 0.05) {
      e = {EventType::kAccountBanned, a, a, t};
    } else if (kind < 0.3) {
      e.type = EventType::kRequestAccepted;
    } else if (kind < 0.45) {
      e.type = EventType::kRequestRejected;
    } else if (kind < 0.6) {
      e.type = EventType::kFriendshipSeeded;
    }
    // Unique and not monotone in arrival, so ties at one time release
    // in an order the arrival order does not give away.
    const std::uint64_t seq = (next_id_++ * 0x9E3779B1ull) & ((1ull << 40) - 1);
    sent_.emplace_back(e, seq);
    if (sent_.size() > 64) sent_.erase(sent_.begin());
    return {e, seq};
  }

  bool chance(double p) { return uniform(0.0, 1.0) < p; }

 private:
  static constexpr std::uint64_t kAccounts = 24;
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng_);
  }
  std::uint64_t pick(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng_);
  }

  std::mt19937_64 rng_;
  double w_;
  double base_;
  double step_;
  std::uint64_t next_id_ = 1;
  std::vector<std::pair<osn::Event, std::uint64_t>> sent_;
};

constexpr double kReorderWatermarks[] = {0.0, 1e-9, 6.0, 48.0, 1e300};
/// Stream origins: zero; near +-1e300, where W can fall below one ulp;
/// and 3e16 and 2.5e17, where one ulp (4, 32) does not divide W = 6 or
/// 48, so high - W rounds and the keys between the watermarks span
/// more buckets than the ring holds.
constexpr double kReorderOffsets[] = {0.0, 1e300, -1e300, 3e16, 2.5e17};

/// The calendar alone, driven as StreamDetector drives it, against the
/// priority queue: every popped (time, seq), and size() and min_seq()
/// after every step.
TEST(StreamDetectorReorder, CalendarPopsInPriorityQueueOrder) {
  using Key = std::pair<double, std::uint64_t>;
  for (const double w : kReorderWatermarks) {
    for (const double offset : kReorderOffsets) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE("W " + std::to_string(w) + " offset " +
                     std::to_string(offset) + " seed " +
                     std::to_string(seed));
        ReorderCalendar calendar(w);
        std::priority_queue<Key, std::vector<Key>, std::greater<>> queue;
        std::set<std::uint64_t> seqs;
        std::set<std::uint64_t> seen;
        double high = -std::numeric_limits<double>::infinity();
        const auto drain = [&](double low) {
          for (;;) {
            const ReorderCalendar::Entry* got = calendar.pop(low);
            const bool due = !queue.empty() && queue.top().first <= low;
            ASSERT_EQ(got != nullptr, due);
            if (got == nullptr) return;
            ASSERT_EQ(Key(got->event.time, got->seq), queue.top());
            seqs.erase(got->seq);
            queue.pop();
          }
        };
        HostileFeed feed(seed, w, offset);
        for (int i = 0; i < 4000 && !HasFailure(); ++i) {
          const auto [e, seq] = feed.next(high);
          // The detector dedups and quarantines before the calendar.
          if (!seen.insert(seq).second || e.time < high - w) continue;
          high = std::max(high, e.time);
          drain(high - w);
          calendar.push({seq, e}, high - w);
          queue.emplace(e.time, seq);
          seqs.insert(seq);
          if (e.time <= high - w) drain(high - w);
          ASSERT_EQ(calendar.size(), queue.size());
          ASSERT_EQ(calendar.min_seq(),
                    seqs.empty() ? ~std::uint64_t{0} : *seqs.begin());
          if (feed.chance(0.02)) drain(HUGE_VAL);  // finish(), then more
        }
        drain(HUGE_VAL);
        EXPECT_EQ(calendar.size(), 0u);
      }
    }
  }
}

/// A push may carry any time at or above the low watermark, however far
/// beyond low + W: such entries wait outside the ring and still release
/// in order, also around later pushes that land below them.
TEST(StreamDetectorReorder, CalendarOrdersEntriesBeyondItsWindow) {
  ReorderCalendar calendar(48.0);
  const auto at = [](double t) {
    return osn::Event{EventType::kRequestSent, 1, 2, t};
  };
  calendar.push({1, at(1000.0)}, 0.0);  // ~20 windows above the low mark
  EXPECT_EQ(calendar.pop(10.0), nullptr);
  calendar.push({2, at(20.0)}, 10.0);
  calendar.push({3, at(500.0)}, 10.0);
  EXPECT_EQ(calendar.size(), 3u);
  EXPECT_EQ(calendar.min_seq(), 1u);
  std::vector<std::uint64_t> released;
  for (const double low : {20.0, 499.0, 999.0, HUGE_VAL}) {
    while (const ReorderCalendar::Entry* e = calendar.pop(low)) {
      released.push_back(e->seq);
    }
    released.push_back(0);  // marks the end of one pop round
  }
  EXPECT_EQ(released, (std::vector<std::uint64_t>{2, 0, 0, 3, 0, 1, 0}));
  EXPECT_EQ(calendar.size(), 0u);
}

TEST(StreamDetectorReorder, MatchesPriorityQueueOracle) {
  for (const double w : kReorderWatermarks) {
    for (const double offset : kReorderOffsets) {
      for (std::uint64_t seed = 1; seed <= 2; ++seed) {
        SCOPED_TRACE("W " + std::to_string(w) + " offset " +
                     std::to_string(offset) + " seed " +
                     std::to_string(seed));
        DetectorOptions options;
        options.rule = eager_rule();
        options.ingest.watermark_hours = w;
        StreamDetector det(options);
        ReorderOracle oracle(w, options.rule);
        HostileFeed feed(seed, w, offset);
        bool ok = true;
        for (int i = 0; i < 4000 && ok; ++i) {
          const auto [e, seq] = feed.next(oracle.high());
          det.ingest(e, seq);
          oracle.ingest(e, seq);
          ok = expect_matches_oracle(det, oracle, e);
          if (ok && feed.chance(0.02)) {  // more ingest follows finish()
            det.finish();
            oracle.finish();
            ok = expect_matches_oracle(det, oracle, e);
          }
        }
        det.finish();
        oracle.finish();
        EXPECT_EQ(det.buffered(), 0u);
        for (osn::NodeId id = 0; id < 24; ++id) {
          expect_same_features(det.features(id),
                               oracle.engine().features(id), id);
        }
      }
    }
  }
}

/// A checkpoint holds no in-flight events: a restored detector gets
/// them back through restore_buffered(), every event from the oldest
/// buffered seq on, and then must track the oracle as the original does.
TEST(StreamDetectorReorder, RestoreBufferedIntoRestoredDetector) {
  for (const double w : kReorderWatermarks) {
    for (const double offset : kReorderOffsets) {
      SCOPED_TRACE("W " + std::to_string(w) + " offset " +
                   std::to_string(offset));
      DetectorOptions options;
      options.rule = eager_rule();
      options.ingest.watermark_hours = w;
      StreamDetector det(options);
      ReorderOracle oracle(w, options.rule);
      HostileFeed feed(7, w, offset);
      std::vector<osn::Event> log;  // ingest order; seq = log index
      const auto step = [&](StreamDetector& d) {
        const osn::Event e = feed.next(oracle.high()).first;
        const std::uint64_t seq = log.size();
        log.push_back(e);
        d.ingest(e, seq);
        oracle.ingest(e, seq);
        return expect_matches_oracle(d, oracle, e);
      };
      bool ok = true;
      for (int i = 0; i < 600 && ok; ++i) ok = step(det);
      if (!ok) continue;

      StreamDetector restored(options);
      restore_stream_state(restored, serialize_stream_state(det));
      const std::uint64_t oldest = det.oldest_buffered_seq();
      for (std::uint64_t seq = oldest; seq < log.size(); ++seq) {
        restored.restore_buffered(log[seq], seq);
      }
      EXPECT_EQ(restored.buffered(), det.buffered());
      EXPECT_EQ(restored.oldest_buffered_seq(), oldest);
      EXPECT_EQ(serialize_stream_state(restored), serialize_stream_state(det));
      for (int i = 0; i < 600 && ok; ++i) ok = step(restored);
      restored.finish();
      oracle.finish();
      if (ok) expect_matches_oracle(restored, oracle, log.back());
    }
  }
}

/// Two events tie in time: they release in seq order, whatever their
/// arrival order. A friendship applied before its endpoint's ban
/// installs an edge; after the ban it is a banned-party event.
TEST(StreamDetectorReorder, TiesReleaseInSeqOrder) {
  for (const bool friendship_seq_smaller : {false, true}) {
    for (const bool friendship_arrives_first : {false, true}) {
      SCOPED_TRACE(std::string(friendship_seq_smaller ? "friendship seq < "
                                                      : "friendship seq > ") +
                   "ban seq, " +
                   (friendship_arrives_first ? "arriving first"
                                             : "arriving second"));
      DetectorOptions options;
      options.ingest.watermark_hours = 6.0;
      StreamDetector det(options);
      det.ingest({EventType::kRequestSent, 3, 4, 12.0}, 100);  // low 6
      const osn::Event friendship{EventType::kFriendshipSeeded, 1, 2, 10.0};
      const osn::Event ban{EventType::kAccountBanned, 1, 1, 10.0};
      const std::uint64_t friendship_seq = friendship_seq_smaller ? 5 : 9;
      const std::uint64_t ban_seq = friendship_seq_smaller ? 9 : 5;
      if (friendship_arrives_first) {
        det.ingest(friendship, friendship_seq);
        det.ingest(ban, ban_seq);
      } else {
        det.ingest(ban, ban_seq);
        det.ingest(friendship, friendship_seq);
      }
      EXPECT_EQ(det.buffered(), 3u);
      det.ingest({EventType::kRequestSent, 3, 4, 16.0}, 101);  // low 10
      EXPECT_EQ(det.applied_total(), 2u);
      EXPECT_EQ(det.banned_party_total(), friendship_seq_smaller ? 0u : 1u);
    }
  }
}

/// The flag sweep as a scan of every account: the ids below
/// accounts_seen(), ascending, that are neither flagged nor banned and
/// pass rule() on their public features(). The detector's sent count is
/// private, so the oracle keeps its own: apply() counts a request only
/// when its sender is not banned.
class FullScanOracle {
 public:
  void sent(osn::NodeId from) {
    grow(from);
    if (!banned_[from]) ++sent_[from];
  }
  void banned(osn::NodeId who) {
    grow(who);
    banned_[who] = true;
  }
  void flagged(const FlagBatch& batch) {
    for (const FlagRecord& r : batch) {
      grow(r.account);
      flagged_[r.account] = true;
    }
  }
  std::vector<osn::NodeId> sweep(const StreamDetector& det) {
    grow(static_cast<osn::NodeId>(det.accounts_seen()));
    const ThresholdDetector rule(det.rule());
    std::vector<osn::NodeId> out;
    for (osn::NodeId id = 0; id < det.accounts_seen(); ++id) {
      if (flagged_[id] || banned_[id]) continue;
      if (rule.is_sybil(det.features(id), sent_[id])) out.push_back(id);
    }
    return out;
  }

 private:
  void grow(osn::NodeId id) {
    if (id < sent_.size()) return;
    sent_.resize(id + 1, 0);
    banned_.resize(id + 1, false);
    flagged_.resize(id + 1, false);
  }
  std::vector<std::uint32_t> sent_;
  std::vector<bool> banned_;
  std::vector<bool> flagged_;
};

/// Sweeps at `now` and checks the returned count and the swept records
/// against the oracle. Returns how many accounts the sweep flagged.
std::size_t expect_sweep_matches_full_scan(Feed& det, FullScanOracle& oracle,
                                           graph::Time now) {
  oracle.flagged(det->take_flagged());  // what apply() flagged
  const std::vector<osn::NodeId> want = oracle.sweep(*det);
  EXPECT_EQ(det->sweep_flags(now), want.size()) << "sweep at " << now;
  const FlagBatch got = det->take_flagged();
  EXPECT_EQ(got.ids(), want) << "sweep at " << now;
  for (const FlagRecord& r : got) {
    const SybilFeatures f = det->features(r.account);
    EXPECT_EQ(r.flagged_at, now);
    EXPECT_EQ(r.features.invite_rate_short, f.invite_rate_short);
    EXPECT_EQ(r.features.invite_rate_long, f.invite_rate_long);
    EXPECT_EQ(r.features.outgoing_accept_ratio, f.outgoing_accept_ratio);
    EXPECT_EQ(r.features.incoming_accept_ratio, f.incoming_accept_ratio);
    EXPECT_EQ(r.features.clustering_coefficient, f.clustering_coefficient);
  }
  oracle.flagged(got);
  return got.size();
}

/// Account 0 sends 30 rejected invites in one hour, but its first two
/// friends know each other, so its clustering (1.0) keeps it unflagged.
void burst_with_triangle(Feed& det, FullScanOracle& oracle) {
  det.friendship(0, 1, 0.0);
  det.friendship(0, 2, 0.0);
  det.friendship(1, 2, 0.0);
  for (osn::NodeId to = 100; to < 130; ++to) {
    det.sent(0, to, 1.0);
    oracle.sent(0);
  }
  for (osn::NodeId to = 100; to < 130; ++to) det.rejected(0, to, 1.2);
}

/// Thirteen seeded friendships grow account 0's first friends to 15
/// with one link among them: clustering 2/(15*14) < 0.01 tips it, and
/// only a sweep can see it — no maybe_flag follows a seeded friendship.
void tip_by_seeded_friends(Feed& det) {
  for (osn::NodeId v = 3; v < 16; ++v) det.friendship(0, v, 1.5);
}

TEST(StreamDetectorSweep, DirtySweepEqualsFullScan) {
  {
    Feed det;
    FullScanOracle oracle;
    burst_with_triangle(det, oracle);
    EXPECT_EQ(expect_sweep_matches_full_scan(det, oracle, 1.4), 0u);
    tip_by_seeded_friends(det);
    ASSERT_EQ(oracle.sweep(*det), std::vector<osn::NodeId>{0});
    EXPECT_EQ(expect_sweep_matches_full_scan(det, oracle, 2.0), 1u);
  }

  // Seeded random streams over 400 accounts. Six burst senders start
  // inside a 5-clique of friends (clustering 1.0). For the first half
  // they invite organic accounts at ~35/h, one answer in ten accepted,
  // while organic accounts befriend each other. Then the senders go
  // quiet, and seeded friendships, half of them with a burst sender,
  // dilute their clustering below a loosened threshold, which mostly
  // only a sweep sees. Bans freeze accounts throughout.
  ThresholdRule rule;
  rule.clustering_max = 0.05;  // at 0.01 the clique keeps them unflagged
  std::size_t swept_flags = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::mt19937_64 rng(seed);
    const auto pick = [&rng](osn::NodeId lo, osn::NodeId hi) {
      return std::uniform_int_distribution<osn::NodeId>(lo, hi)(rng);
    };
    constexpr osn::NodeId kBursters = 6;
    constexpr osn::NodeId kAccounts = 400;
    Feed det(rule);
    FullScanOracle oracle;
    for (osn::NodeId b = 0; b < kBursters; ++b) {
      const osn::NodeId clique = kBursters + 5 * b;
      for (osn::NodeId x = clique; x < clique + 5; ++x) {
        det.friendship(b, x, 0.0);
        for (osn::NodeId y = x + 1; y < clique + 5; ++y) {
          det.friendship(x, y, 0.0);
        }
      }
    }
    std::vector<std::pair<osn::NodeId, osn::NodeId>> pending;
    graph::Time t = 0.0;
    for (int i = 0; i < 3000; ++i) {
      t += 0.002;
      const bool quiet = i >= 1500;
      const osn::NodeId kind = pick(quiet ? 45 : 0, 99);
      if (kind < 45) {
        const osn::NodeId from = pick(0, kBursters - 1);
        const osn::NodeId to = pick(kBursters, kAccounts - 1);
        det.sent(from, to, t);
        oracle.sent(from);
        pending.emplace_back(from, to);
      } else if (kind < 75) {
        if (pending.empty()) continue;
        const auto last = static_cast<osn::NodeId>(pending.size() - 1);
        std::swap(pending[pick(0, last)], pending.back());
        const auto [from, to] = pending.back();
        pending.pop_back();
        if (pick(0, 9) == 0) {
          det.accepted(from, to, t);
        } else {
          det.rejected(from, to, t);
        }
      } else if (kind < 98) {
        const osn::NodeId u = quiet && pick(0, 1) == 0
                                  ? pick(0, kBursters - 1)
                                  : pick(kBursters, kAccounts - 1);
        const osn::NodeId v = pick(kBursters, kAccounts - 1);
        if (u != v) det.friendship(u, v, t);
      } else {
        const osn::NodeId who = pick(0, kAccounts - 1);
        det.banned(who, t);
        oracle.banned(who);
      }
      if (pick(0, 59) == 0) {
        swept_flags += expect_sweep_matches_full_scan(det, oracle, t);
      }
    }
    swept_flags += expect_sweep_matches_full_scan(det, oracle, t + 1.0);
  }
  // The streams must exercise the sweep, not only apply()'s flags.
  EXPECT_GT(swept_flags, 0u);
}

TEST(StreamDetectorSweep, RestoredDetectorSweepsEveryAccountOnce) {
  Feed uninterrupted;
  FullScanOracle oracle;
  burst_with_triangle(uninterrupted, oracle);
  tip_by_seeded_friends(uninterrupted);
  // No sweep yet: the tipped account is only in the dirty list, which
  // the stream state does not hold.
  StreamDetector restored(applied_on_arrival());
  restore_stream_state(restored, serialize_stream_state(*uninterrupted));

  EXPECT_EQ(restored.sweep_flags(2.0), 1u);
  EXPECT_EQ(uninterrupted->sweep_flags(2.0), 1u);
  const FlagBatch want = uninterrupted->take_flagged();
  const FlagBatch got = restored.take_flagged();
  ASSERT_EQ(got.ids(), want.ids());
  ASSERT_EQ(got.ids(), std::vector<osn::NodeId>{0});
  EXPECT_EQ(got[0].flagged_at, want[0].flagged_at);
  EXPECT_EQ(got[0].features.clustering_coefficient,
            want[0].features.clustering_coefficient);
  EXPECT_EQ(got[0].features.outgoing_accept_ratio,
            want[0].features.outgoing_accept_ratio);
  EXPECT_EQ(serialize_stream_state(restored),
            serialize_stream_state(*uninterrupted));
}

#if SYBIL_METRICS_COMPILED
/// Every applied event bumps exactly one stream.events.* counter for its
/// kind; creations and dropped requests have no feature effect and bump
/// none.
TEST(StreamDetector, IngestBumpsOneEventCounterPerAppliedKind) {
  auto& registry = metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);  // the test counts; restored at the end
  using Counts = std::vector<std::uint64_t>;
  const auto counters = [&] {
    return Counts{
        registry.counter("stream.events.request_sent").value(),
        registry.counter("stream.events.request_accepted").value(),
        registry.counter("stream.events.request_rejected").value(),
        registry.counter("stream.events.friendship").value(),
        registry.counter("stream.events.account_banned").value(),
        registry.counter("stream.events.banned_party").value(),
    };
  };
  Counts before;
  const auto delta = [&] {
    const Counts after = counters();
    Counts d(before.size());
    for (std::size_t i = 0; i < before.size(); ++i) d[i] = after[i] - before[i];
    before = after;
    return d;
  };

  Feed det;
  before = counters();
  det->ingest({EventType::kAccountCreated, 0, 0, 0.0});
  det->ingest({EventType::kRequestDropped, 4, 2, 0.1});
  EXPECT_EQ(delta(), Counts(6, 0));
  EXPECT_EQ(det->applied_total(), 2u);
  det.friendship(0, 1, 0.5);
  EXPECT_EQ(delta(), (Counts{0, 0, 0, 1, 0, 0}));
  det.sent(2, 3, 1.0);
  det.sent(2, 4, 1.1);
  EXPECT_EQ(delta(), (Counts{2, 0, 0, 0, 0, 0}));
  det.accepted(2, 3, 2.0);
  EXPECT_EQ(delta(), (Counts{0, 1, 0, 0, 0, 0}));
  det.rejected(2, 4, 2.1);
  EXPECT_EQ(delta(), (Counts{0, 0, 1, 0, 0, 0}));
  det.banned(4, 2.3);  // a ban never counts as a banned-party event
  det.banned(4, 2.4);
  EXPECT_EQ(delta(), (Counts{0, 0, 0, 0, 2, 0}));
  det.sent(4, 2, 2.5);
  EXPECT_EQ(delta(), (Counts{1, 0, 0, 0, 0, 1}));
  registry.set_enabled(was_enabled);
}

/// stream.sweep.evaluated counts the accounts a sweep re-checks: the
/// dirty ones, then none while nothing changes.
TEST(StreamDetectorSweep, EvaluatedCounterCountsRecheckedAccounts) {
  auto& registry = metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);  // the test counts; restored at the end
  metrics::Counter& evaluated = registry.counter("stream.sweep.evaluated");
  Feed det;
  FullScanOracle oracle;
  burst_with_triangle(det, oracle);
  std::uint64_t before = evaluated.value();
  det->sweep_flags(1.4);
  // The triangle's closing edge marks its watcher, account 0; seeding
  // marked all three endpoints.
  EXPECT_EQ(evaluated.value() - before, 3u);
  before = evaluated.value();
  det->sweep_flags(1.45);
  EXPECT_EQ(evaluated.value() - before, 0u);
  tip_by_seeded_friends(det);
  before = evaluated.value();
  EXPECT_EQ(det->sweep_flags(2.0), 1u);
  EXPECT_EQ(evaluated.value() - before, 14u);  // account 0 and friends 3..15
  // A link between two of account 0's first friends marks both
  // endpoints only: account 0's internal links grew, which raises its
  // clustering and so can never flag it.
  det.friendship(1, 3, 2.1);
  before = evaluated.value();
  det->sweep_flags(2.2);
  EXPECT_EQ(evaluated.value() - before, 2u);
  registry.set_enabled(was_enabled);
}

/// Closing triangles among the friends one account watches re-checks
/// the new edges' endpoints and never the watcher: a clustering gain
/// cannot satisfy clustering < clustering_max.
TEST(StreamDetectorSweep, TriangleClosuresRecheckOnlyTheEndpoints) {
  auto& registry = metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);  // the test counts; restored at the end
  metrics::Counter& evaluated = registry.counter("stream.sweep.evaluated");
  Feed det;
  // Account 0 watches friends 1..6, with no links among them yet.
  for (osn::NodeId v = 1; v <= 6; ++v) det.friendship(0, v, 0.5);
  det->sweep_flags(1.0);
  // Three disjoint closures: (1,2), (3,4) and (5,6) each close a
  // triangle with account 0, whose internal links go from 0 to 3.
  det.friendship(1, 2, 1.1);
  det.friendship(3, 4, 1.2);
  det.friendship(5, 6, 1.3);
  EXPECT_DOUBLE_EQ(det->features(0).clustering_coefficient, 0.2);
  const std::uint64_t before = evaluated.value();
  det->sweep_flags(1.4);
  EXPECT_EQ(evaluated.value() - before, 6u);
  registry.set_enabled(was_enabled);
}
#endif  // SYBIL_METRICS_COMPILED

}  // namespace
}  // namespace sybil::core
