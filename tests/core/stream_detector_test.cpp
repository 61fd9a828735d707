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

TEST(StreamDetector, CountersTrackEvents) {
  StreamDetector det;
  det.on_request_sent(0, 1, 0.5);
  det.on_request_sent(0, 2, 0.6);
  det.on_request_accepted(0, 1, 1.0);
  det.on_request_rejected(0, 2, 1.5);
  const SybilFeatures f = det.features(0);
  EXPECT_DOUBLE_EQ(f.outgoing_accept_ratio, 0.5);
  EXPECT_DOUBLE_EQ(f.invite_rate_short, 2.0);
  EXPECT_DOUBLE_EQ(det.features(1).incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(det.features(2).incoming_accept_ratio, 0.0);
}

TEST(StreamDetector, UnknownAccountHasBenignDefaults) {
  StreamDetector det;
  const SybilFeatures f = det.features(42);
  EXPECT_DOUBLE_EQ(f.outgoing_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(f.invite_rate_short, 0.0);
}

TEST(StreamDetector, ClusteringTracksTriangles) {
  StreamDetector det;
  // Node 0 befriends 1, 2, 3; then 1-2 links: cc = 1/3.
  det.on_friendship(0, 1, 1.0);
  det.on_friendship(0, 2, 2.0);
  det.on_friendship(0, 3, 3.0);
  EXPECT_DOUBLE_EQ(det.features(0).clustering_coefficient, 0.0);
  det.on_friendship(1, 2, 4.0);
  EXPECT_NEAR(det.features(0).clustering_coefficient, 1.0 / 3.0, 1e-12);
  // Existing link counted when the friend attaches afterwards: 4 joins
  // 0's set already linked to 3.
  det.on_friendship(3, 4, 5.0);
  det.on_friendship(0, 4, 6.0);
  // first friends = {1,2,3,4}; links among them: (1,2), (3,4) → 2/C(4,2).
  EXPECT_NEAR(det.features(0).clustering_coefficient, 2.0 / 6.0, 1e-12);
}

TEST(StreamDetector, FirstFriendsPrefixIsBounded) {
  DetectorOptions cfg;
  cfg.first_friends = 3;
  StreamDetector det(cfg);
  for (osn::NodeId v = 1; v <= 10; ++v) {
    det.on_friendship(0, v, static_cast<double>(v));
  }
  // Only friends 1..3 are watched; a late link between 5 and 6 must not
  // change node 0's clustering.
  det.on_friendship(5, 6, 20.0);
  EXPECT_DOUBLE_EQ(det.features(0).clustering_coefficient, 0.0);
  det.on_friendship(1, 2, 21.0);
  EXPECT_NEAR(det.features(0).clustering_coefficient, 1.0 / 3.0, 1e-12);
}

TEST(StreamDetector, DuplicateEdgesIgnored) {
  StreamDetector det;
  det.on_friendship(0, 1, 1.0);
  det.on_friendship(0, 2, 2.0);
  det.on_friendship(1, 2, 3.0);
  det.on_friendship(2, 1, 4.0);  // duplicate, reversed
  EXPECT_NEAR(det.features(0).clustering_coefficient, 1.0, 1e-12);
}

TEST(StreamDetector, FlagsBurstySenderOnce) {
  StreamDetector det;
  // 60 invites in one hour, ~25% accepted, no mutual friends.
  for (int i = 0; i < 60; ++i) {
    det.on_request_sent(0, static_cast<osn::NodeId>(i + 1), 0.3);
  }
  for (int i = 0; i < 60; ++i) {
    if (i % 4 == 0) {
      det.on_request_accepted(0, static_cast<osn::NodeId>(i + 1), 0.8);
    } else {
      det.on_request_rejected(0, static_cast<osn::NodeId>(i + 1), 0.8);
    }
  }
  const FlagBatch flagged = det.take_flagged();
  ASSERT_EQ(flagged.size(), 1u);
  EXPECT_EQ(flagged[0].account, 0u);
  // The rule fires mid-burst, while the invites are still going out.
  EXPECT_DOUBLE_EQ(flagged[0].flagged_at, 0.3);
  EXPECT_LT(flagged[0].features.outgoing_accept_ratio, 0.5);
  EXPECT_TRUE(det.take_flagged().empty());  // reported once
  EXPECT_EQ(det.flagged_total(), 1u);
}

TEST(StreamDetector, BannedAccountsNeverFlagged) {
  StreamDetector det;
  det.on_account_banned(0);
  for (int i = 0; i < 60; ++i) {
    det.on_request_sent(0, static_cast<osn::NodeId>(i + 1), 0.3);
    det.on_request_rejected(0, static_cast<osn::NodeId>(i + 1), 0.5);
  }
  EXPECT_TRUE(det.take_flagged().empty());
}

/// The streaming features must agree EXACTLY with the batch
/// FeatureExtractor when fed the same history — the property that lets
/// a deployment trust either path.
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

  StreamDetector stream;
  stream.replay(net.log());
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
  StreamDetector det;
  det.on_request_sent(0, 1, 0.5);
  det.on_account_banned(0);
  EXPECT_EQ(det.banned_party_total(), 0u);

  // The bot's client keeps sending after the ban landed.
  det.on_request_sent(0, 2, 1.0);
  EXPECT_EQ(det.banned_party_total(), 1u);
  // Sender's ledger frozen at one send; recipient still counted it.
  EXPECT_DOUBLE_EQ(det.features(0).invite_rate_short, 1.0);
  EXPECT_DOUBLE_EQ(det.features(2).incoming_accept_ratio, 0.0);

  // A response for the pre-ban request arrives after the ban: the live
  // recipient's incoming-accept counters update, the banned sender's
  // outgoing ones do not, and no edge materializes.
  det.on_request_accepted(0, 1, 1.5);
  EXPECT_EQ(det.banned_party_total(), 2u);
  // Frozen: the banned sender's accept was never counted (0 of 1 sent).
  EXPECT_DOUBLE_EQ(det.features(0).outgoing_accept_ratio, 0.0);
  EXPECT_DOUBLE_EQ(det.features(1).incoming_accept_ratio, 1.0);
  EXPECT_DOUBLE_EQ(det.features(1).clustering_coefficient, 0.0);
  EXPECT_TRUE(det.take_flagged().empty());
}

/// In-order ingest() with unique seqs is behaviourally identical to the
/// trusted replay() path: same features, nothing quarantined.
TEST(StreamDetector, InOrderIngestMatchesReplay) {
  osn::EventLog log;
  log.append({osn::EventType::kFriendshipSeeded, 0, 1, 0.5});
  log.append({osn::EventType::kRequestSent, 2, 3, 1.0});
  log.append({osn::EventType::kRequestSent, 2, 4, 1.1});
  log.append({osn::EventType::kRequestAccepted, 3, 2, 2.0});
  log.append({osn::EventType::kRequestRejected, 4, 2, 2.1});
  log.append({osn::EventType::kAccountBanned, 4, 4, 2.3});

  StreamDetector replayed;
  replayed.replay(log);
  StreamDetector ingested;
  const auto& events = log.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    ingested.ingest(events[i], i);
  }
  ingested.finish();

  EXPECT_EQ(ingested.events_in(), events.size());
  EXPECT_EQ(ingested.applied_total(), events.size());
  EXPECT_EQ(ingested.deduped_total(), 0u);
  EXPECT_EQ(ingested.deadletter_total(), 0u);
  EXPECT_EQ(ingested.buffered(), 0u);
  for (osn::NodeId id = 0; id <= 4; ++id) {
    const SybilFeatures a = replayed.features(id);
    const SybilFeatures b = ingested.features(id);
    EXPECT_DOUBLE_EQ(a.invite_rate_short, b.invite_rate_short) << id;
    EXPECT_DOUBLE_EQ(a.outgoing_accept_ratio, b.outgoing_accept_ratio) << id;
    EXPECT_DOUBLE_EQ(a.incoming_accept_ratio, b.incoming_accept_ratio) << id;
    EXPECT_DOUBLE_EQ(a.clustering_coefficient, b.clustering_coefficient)
        << id;
  }
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
/// Replaying a log must advance the stream.* metrics exactly as the
/// equivalent live event stream does: replay dispatches through the
/// same handlers, so event totals are identical on both paths.
TEST(StreamDetector, ReplayDrivesSameMetricCountersAsLiveStream) {
  auto& registry = metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);  // the test counts; restored at the end
  const auto counters = [&] {
    return std::vector<std::uint64_t>{
        registry.counter("stream.events.request_sent").value(),
        registry.counter("stream.events.request_accepted").value(),
        registry.counter("stream.events.request_rejected").value(),
        registry.counter("stream.events.friendship").value(),
        registry.counter("stream.events.account_banned").value(),
        registry.counter("stream.flagged").value(),
    };
  };
  const auto delta = [](const std::vector<std::uint64_t>& before,
                        const std::vector<std::uint64_t>& after) {
    std::vector<std::uint64_t> d(before.size());
    for (std::size_t i = 0; i < before.size(); ++i) d[i] = after[i] - before[i];
    return d;
  };

  // One sequence exercising every handler, expressed twice: as direct
  // handler calls (live) and as an osn::EventLog (replay). The log also
  // carries created/dropped events, which have no live handler and must
  // therefore not count on either path.
  StreamDetector live;
  const auto before_live = counters();
  live.on_friendship(0, 1, 0.5);
  live.on_request_sent(2, 3, 1.0);
  live.on_request_sent(2, 4, 1.1);
  live.on_request_accepted(2, 3, 2.0);
  live.on_request_rejected(2, 4, 2.1);
  live.on_account_banned(4);
  const auto live_delta = delta(before_live, counters());

  osn::EventLog log;
  log.append({osn::EventType::kAccountCreated, 0, 0, 0.0});
  log.append({osn::EventType::kFriendshipSeeded, 0, 1, 0.5});
  log.append({osn::EventType::kRequestSent, 2, 3, 1.0});
  log.append({osn::EventType::kRequestSent, 2, 4, 1.1});
  // Log convention: actor = who answered, subject = sender.
  log.append({osn::EventType::kRequestAccepted, 3, 2, 2.0});
  log.append({osn::EventType::kRequestRejected, 4, 2, 2.1});
  log.append({osn::EventType::kRequestDropped, 4, 2, 2.2});
  log.append({osn::EventType::kAccountBanned, 4, 4, 2.3});
  StreamDetector replayed;
  const auto before_replay = counters();
  replayed.replay(log);
  const auto replay_delta = delta(before_replay, counters());

  EXPECT_EQ(live_delta, replay_delta);
  EXPECT_EQ(live_delta[0], 2u);  // request_sent
  EXPECT_EQ(live_delta[1], 1u);  // request_accepted
  EXPECT_EQ(live_delta[2], 1u);  // request_rejected
  EXPECT_EQ(live_delta[3], 1u);  // friendship
  EXPECT_EQ(live_delta[4], 1u);  // account_banned
  // And the two detectors agree on state, not just on counters.
  for (osn::NodeId id = 0; id <= 4; ++id) {
    EXPECT_DOUBLE_EQ(live.features(id).outgoing_accept_ratio,
                     replayed.features(id).outgoing_accept_ratio)
        << id;
  }
  registry.set_enabled(was_enabled);
}
#endif  // SYBIL_METRICS_COMPILED

}  // namespace
}  // namespace sybil::core
