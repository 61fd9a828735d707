// Chaos suite: the hardened ingestion invariants under seeded fault
// injection (docs/ROBUSTNESS.md).
//
//   * equivalence — faults the watermark can absorb (bounded reorder,
//     duplicates) leave flag sets and every feature byte-identical to
//     the clean ingest of the same log;
//   * accounting — with every fault enabled, nothing crashes and
//     events_in == applied + deduped + dead-lettered, exactly;
//   * determinism — the same chaos seed replays to byte-identical
//     dead-letter contents and flag sets at SYBIL_THREADS=1 and 8.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "core/metrics/export.h"
#include "core/metrics/metrics.h"
#include "core/parallel.h"
#include "core/stream_detector.h"
#include "faults/fault_injector.h"
#include "osn/network.h"
#include "stats/rng.h"

namespace sybil::faults {
namespace {

/// A logged network exercising every event type, with enough bursty
/// senders that the threshold rule fires: seeded friendships, mixed
/// accept/reject, mid-stream bans.
osn::EventLog build_log(std::uint64_t seed) {
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(seed);
  constexpr int kAccounts = 120;
  for (int i = 0; i < kAccounts; ++i) net.add_account(osn::Account{});
  for (int i = 0; i < 80; ++i) {
    net.add_friendship(
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        -1.0 * static_cast<double>(i));
  }
  for (double t = 0.0; t < 40.0; t += 1.0) {
    for (int k = 0; k < 25; ++k) {
      const auto from =
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts));
      const auto to = static_cast<osn::NodeId>(rng.uniform_index(kAccounts));
      net.send_request(from, to, t + rng.uniform(),
                       t + 1.0 + rng.uniform(2.0, 10.0));
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.4);
    });
    if (t == 20.0) net.ban(5, t);
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.4);
  });
  return net.log();
}

struct IngestResult {
  core::FlagBatch flags;
  std::vector<core::SybilFeatures> features;
  std::vector<core::StreamDetector::DeadLetter> dead_letters;
  std::uint64_t dead_letters_dropped = 0;
  std::uint64_t events_in = 0, applied = 0, deduped = 0, deadlettered = 0;
};

IngestResult ingest_all(const std::vector<Arrival>& arrivals,
                        const core::DetectorOptions& opts,
                        std::size_t accounts) {
  core::StreamDetector det(opts);
  for (const Arrival& a : arrivals) det.ingest(a.event, a.seq);
  det.finish();
  IngestResult r;
  r.flags = det.take_flagged();
  for (std::size_t id = 0; id < accounts; ++id) {
    r.features.push_back(det.features(static_cast<osn::NodeId>(id)));
  }
  r.dead_letters.assign(det.dead_letters().begin(),
                        det.dead_letters().end());
  r.dead_letters_dropped = det.dead_letters_dropped();
  r.events_in = det.events_in();
  r.applied = det.applied_total();
  r.deduped = det.deduped_total();
  r.deadlettered = det.deadletter_total();
  return r;
}

std::vector<Arrival> clean_arrivals(const osn::EventLog& log) {
  std::vector<Arrival> arrivals;
  const auto& events = log.events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    arrivals.push_back({events[i], i, events[i].time});
  }
  return arrivals;
}

void expect_features_equal(const std::vector<core::SybilFeatures>& a,
                           const std::vector<core::SybilFeatures>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_DOUBLE_EQ(a[i].invite_rate_short, b[i].invite_rate_short) << i;
    ASSERT_DOUBLE_EQ(a[i].invite_rate_long, b[i].invite_rate_long) << i;
    ASSERT_DOUBLE_EQ(a[i].outgoing_accept_ratio, b[i].outgoing_accept_ratio)
        << i;
    ASSERT_DOUBLE_EQ(a[i].incoming_accept_ratio, b[i].incoming_accept_ratio)
        << i;
    ASSERT_DOUBLE_EQ(a[i].clustering_coefficient,
                     b[i].clustering_coefficient)
        << i;
  }
}

void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
    ASSERT_DOUBLE_EQ(a[i].features.invite_rate_short,
                     b[i].features.invite_rate_short)
        << i;
  }
}

/// The headline invariant: any interleaving the watermark can absorb —
/// bounded reordering plus duplicate redelivery, at any rate — produces
/// byte-identical flag sets and feature snapshots. Property-style sweep
/// over seeds x rates x skew bounds.
TEST(Chaos, EquivalenceWithinWatermark) {
  const osn::EventLog log = build_log(17);
  constexpr std::size_t kAccounts = 120;
  const double inversion = log.max_inversion_hours();

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const double rate : {0.3, 1.0}) {
      for (const double skew : {2.0, 6.0}) {
        core::DetectorOptions opts;
        // Redelivery delay compounds on reorder delay: a duplicate of a
        // maximally delayed event arrives up to 2 x skew past its
        // in-order slot, so that is the horizon the watermark must
        // cover for full equivalence.
        opts.ingest.watermark_hours = inversion + 2.0 * skew;

        const IngestResult clean =
            ingest_all(clean_arrivals(log), opts, kAccounts);
        ASSERT_EQ(clean.deadlettered, 0u);

        FaultRates rates;
        rates.seed = seed;
        rates.reorder = rate;
        rates.duplicate = rate;
        rates.max_skew_hours = skew;
        FaultInjector injector(rates);
        const IngestResult faulted =
            ingest_all(injector.corrupt(log), opts, kAccounts);

        ASSERT_EQ(faulted.deadlettered, 0u)
            << "seed=" << seed << " rate=" << rate << " skew=" << skew;
        ASSERT_EQ(faulted.deduped, injector.report().duplicated);
        ASSERT_EQ(faulted.applied, clean.applied);
        expect_flags_equal(clean.flags, faulted.flags);
        expect_features_equal(clean.features, faulted.features);
      }
    }
  }
}

/// Full hostile mode: every fault enabled. Nothing crashes, and the
/// accounting identity holds exactly — no event is lost or counted
/// twice, whatever happened to it.
TEST(Chaos, NeverCrashesAndAccountingIsExact) {
  const osn::EventLog log = build_log(23);
  for (const std::uint64_t seed : {4ull, 5ull, 6ull}) {
    FaultRates rates;
    rates.seed = seed;
    rates.drop = 0.2;
    rates.reorder = 0.3;
    rates.duplicate = 0.3;
    rates.regress = 0.2;
    rates.regress_hours = 500.0;
    rates.malform = 0.2;
    rates.banned_party = 1.0;
    FaultInjector injector(rates);
    const auto arrivals = injector.corrupt(log);

    core::DetectorOptions opts;
    opts.ingest.watermark_hours = log.max_inversion_hours() + 6.0;
    core::StreamDetector det(opts);
    for (const Arrival& a : arrivals) {
      det.ingest(a.event, a.seq);
      // The identity holds at EVERY point, not just at the end.
      ASSERT_EQ(det.events_in(), det.applied_total() + det.deduped_total() +
                                     det.deadletter_total() + det.buffered());
    }
    det.finish();
    EXPECT_EQ(det.buffered(), 0u);
    EXPECT_EQ(det.events_in(), arrivals.size());
    EXPECT_EQ(det.events_in(), det.applied_total() + det.deduped_total() +
                                   det.deadletter_total());
    EXPECT_LE(det.dead_letters().size(),
              core::StreamDetector::kDeadLetterCapacity);
    EXPECT_EQ(det.deadletter_total(),
              det.dead_letters().size() + det.dead_letters_dropped());
    EXPECT_GT(det.deadletter_total(), 0u);  // malform really fired
  }
}

/// The same chaos seed replays byte-identically whatever SYBIL_THREADS
/// is: dead-letter contents (events, seqs, reasons) and flag sets are
/// equal between a 1-thread and an 8-thread run.
TEST(Chaos, ReplayIsDeterministicAcrossThreadCounts) {
  const osn::EventLog log = build_log(31);
  constexpr std::size_t kAccounts = 120;
  FaultRates rates;
  rates.seed = 77;
  rates.drop = 0.1;
  rates.reorder = 0.5;
  rates.duplicate = 0.3;
  rates.malform = 0.1;
  core::DetectorOptions opts;
  opts.ingest.watermark_hours = log.max_inversion_hours() + 6.0;

  const auto run = [&] {
    FaultInjector injector(rates);
    return ingest_all(injector.corrupt(log), opts, kAccounts);
  };
  core::set_thread_count(1);
  const IngestResult one = run();
  core::set_thread_count(8);
  const IngestResult eight = run();
  core::set_thread_count(0);  // back to automatic

  expect_flags_equal(one.flags, eight.flags);
  expect_features_equal(one.features, eight.features);
  ASSERT_EQ(one.dead_letters.size(), eight.dead_letters.size());
  for (std::size_t i = 0; i < one.dead_letters.size(); ++i) {
    const auto& a = one.dead_letters[i];
    const auto& b = eight.dead_letters[i];
    ASSERT_EQ(a.seq, b.seq) << i;
    ASSERT_EQ(a.reason, b.reason) << i;
    ASSERT_EQ(a.event.type, b.event.type) << i;
    ASSERT_EQ(a.event.actor, b.event.actor) << i;
    ASSERT_EQ(a.event.subject, b.event.subject) << i;
    ASSERT_TRUE((std::isnan(a.event.time) && std::isnan(b.event.time)) ||
                a.event.time == b.event.time)
        << i;
  }
  EXPECT_EQ(one.dead_letters_dropped, eight.dead_letters_dropped);
}

/// Two detectors on two threads ingesting the same hostile feed stay
/// independent (no shared mutable state except the metrics registry,
/// which the tsan preset hammers here) and agree with each other.
TEST(Chaos, ConcurrentDetectorsAreIndependent) {
  const osn::EventLog log = build_log(41);
  constexpr std::size_t kAccounts = 120;
  FaultRates rates;
  rates.seed = 13;
  rates.reorder = 0.5;
  rates.duplicate = 0.5;
  rates.malform = 0.1;
  core::DetectorOptions opts;
  opts.ingest.watermark_hours = log.max_inversion_hours() + 6.0;
  FaultInjector injector(rates);
  const std::vector<Arrival> arrivals = injector.corrupt(log);

  IngestResult results[2];
  std::thread workers[2];
  for (int w = 0; w < 2; ++w) {
    workers[w] = std::thread([&, w] {
      results[w] = ingest_all(arrivals, opts, kAccounts);
    });
  }
  for (auto& t : workers) t.join();
  expect_flags_equal(results[0].flags, results[1].flags);
  expect_features_equal(results[0].features, results[1].features);
  EXPECT_EQ(results[0].deadlettered, results[1].deadlettered);
}

TEST(Chaos, DeadLetterQueueIsBounded) {
  constexpr std::size_t kCapacity = core::StreamDetector::kDeadLetterCapacity;
  core::StreamDetector det;
  for (std::size_t i = 0; i < kCapacity + 6; ++i) {
    const osn::Event bad{static_cast<osn::EventType>(0xFF),
                         static_cast<graph::NodeId>(i), 1,
                         static_cast<double>(i)};
    det.ingest(bad, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(det.deadletter_total(), kCapacity + 6);
  EXPECT_EQ(det.dead_letters().size(), kCapacity);
  EXPECT_EQ(det.dead_letters_dropped(), 6u);
  // The queue keeps the most recent quarantines.
  EXPECT_EQ(det.dead_letters().front().event.actor, 6u);
  EXPECT_EQ(det.dead_letters().back().event.actor, kCapacity + 5);
}

TEST(Chaos, TimeRegressionBeyondWatermarkIsQuarantined) {
  core::DetectorOptions opts;
  opts.ingest.watermark_hours = 10.0;
  core::StreamDetector det(opts);
  det.ingest({osn::EventType::kRequestSent, 0, 1, 100.0}, 0);
  // 15 hours behind the high watermark: outside the reorder horizon.
  det.ingest({osn::EventType::kRequestSent, 2, 3, 85.0}, 1);
  EXPECT_EQ(det.deadletter_total(), 1u);
  ASSERT_EQ(det.dead_letters().size(), 1u);
  EXPECT_EQ(det.dead_letters().front().reason,
            core::StreamErrorCode::kTimeRegression);
  // 5 hours behind: inside the horizon, buffered and applied.
  det.ingest({osn::EventType::kRequestSent, 4, 5, 95.0}, 2);
  det.finish();
  EXPECT_EQ(det.applied_total(), 2u);
  EXPECT_EQ(det.deadletter_total(), 1u);
}

#if SYBIL_METRICS_COMPILED
/// Dead-letter reasons must be distinguishable in dashboards: every
/// per-reason counter is pre-registered (visible at zero) and bumped on
/// quarantine, and all of them survive into the JSON export.
TEST(Chaos, DeadLetterReasonsExportedPerReason) {
  auto& registry = core::metrics::MetricsRegistry::instance();
  const bool was_enabled = registry.enabled();
  registry.set_enabled(true);
  const auto count_of = [&](const char* name) {
    return registry.counter(name).value();
  };
  const std::uint64_t self_before =
      count_of("stream.deadletter.self_referential");
  const std::uint64_t unknown_before =
      count_of("stream.deadletter.unknown_event_type");

  core::StreamDetector det;
  det.ingest({osn::EventType::kRequestSent, 4, 4, 1.0}, 0);
  det.ingest({static_cast<osn::EventType>(0xEE), 0, 1, 1.0}, 1);
  EXPECT_EQ(count_of("stream.deadletter.self_referential"),
            self_before + 1);
  EXPECT_EQ(count_of("stream.deadletter.unknown_event_type"),
            unknown_before + 1);

  const std::string json =
      core::metrics::export_json(registry.snapshot());
  for (const char* name :
       {"stream.deadletter.unknown_event_type",
        "stream.deadletter.invalid_account_id",
        "stream.deadletter.self_referential",
        "stream.deadletter.non_finite_time",
        "stream.deadletter.time_regression",
        "stream.deadletter.dropped"}) {
    EXPECT_NE(json.find(name), std::string::npos) << name;
  }
  registry.set_enabled(was_enabled);
}
#endif  // SYBIL_METRICS_COMPILED

}  // namespace
}  // namespace sybil::faults
