#include "core/stream_detector.h"

#include <gtest/gtest.h>

#include "core/features.h"
#include "core/metrics/instrument.h"
#include "osn/simulator.h"

#if SYBIL_METRICS_COMPILED
#include "core/metrics/metrics.h"
#endif

namespace sybil::core {
namespace {

using osn::EventType;

/// Zero watermark: ingest() applies a nondecreasing-time feed event by
/// event, so a test can read the features between any two calls.
DetectorOptions applied_on_arrival() {
  DetectorOptions o;
  o.ingest.watermark_hours = 0.0;
  return o;
}

/// A detector fed log-convention events in nondecreasing time order.
class Feed {
 public:
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
  StreamDetector det_{applied_on_arrival()};
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
#endif  // SYBIL_METRICS_COMPILED

}  // namespace
}  // namespace sybil::core
