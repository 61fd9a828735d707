// Overload-control suite: degradation-tier transitions with
// hysteresis, the bans-are-never-shed rule, capacity shedding, the
// flag-sweep-only tier's sweep path, WAL replay of every verdict kind,
// option validation, a recovered backlog that sheds as the live one
// did, and the accounting identity
//
//   offered == shed + queued + applied + deduped + dead-lettered
//              + buffered
//
// checked after every single operation (docs/ROBUSTNESS.md
// §Degradation tiers).
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/metrics/metrics.h"
#include "service/supervisor.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class ServiceOverload : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_ovl_", name);
}

/// Tiny watermarks so every tier is reachable by hand:
/// resume 2 < shed 4 <= sweep-only 6 <= capacity 8.
ServiceOptions tiny_options(const std::string& dir) {
  ServiceOptions o;
  o.dir = dir;
  o.wal_fsync = WalFsync::kNever;
  o.checkpoint_every = 0;  // explicit checkpoints only
  o.detector.overload.queue_capacity = 8;
  o.detector.overload.shed_watermark = 4;
  o.detector.overload.sweep_only_watermark = 6;
  o.detector.overload.resume_watermark = 2;
  return o;
}

osn::Event request_at(double t, graph::NodeId from = 1,
                      graph::NodeId to = 2) {
  return osn::Event{osn::EventType::kRequestSent, from, to, t};
}

osn::Event ban_of(graph::NodeId who, double t) {
  return osn::Event{osn::EventType::kAccountBanned, who, who, t};
}

#define EXPECT_ACCOUNTED(s) EXPECT_TRUE((s).accounting_ok())

TEST_F(ServiceOverload, TiersDegradeAtWatermarksWithHysteresis) {
  ServiceSupervisor s(tiny_options(fresh_dir("tiers")));
  s.start();
  double t = 0.0;

  // Depth 0..3: full service.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(s.offer(request_at(t += 0.01)));
    EXPECT_EQ(s.tier(), core::ServiceTier::kFull);
    EXPECT_ACCOUNTED(s);
  }
  // Depth 4 at decision time: shed-low-priority. Requests still land.
  EXPECT_TRUE(s.offer(request_at(t += 0.01)));
  EXPECT_EQ(s.tier(), core::ServiceTier::kShedLowPriority);
  // ...but low-priority kinds are shed.
  EXPECT_FALSE(s.offer(
      osn::Event{osn::EventType::kAccountCreated, 9, 9, t += 0.01}));
  EXPECT_EQ(s.counters().shed_low_priority, 1u);
  EXPECT_ACCOUNTED(s);

  // Push depth to 6: sweep-only; now even requests are shed.
  EXPECT_TRUE(s.offer(request_at(t += 0.01)));  // depth 6
  EXPECT_FALSE(s.offer(request_at(t += 0.01)));
  EXPECT_EQ(s.tier(), core::ServiceTier::kSweepOnly);
  EXPECT_EQ(s.counters().shed_sweep_only, 1u);
  EXPECT_ACCOUNTED(s);

  // Hysteresis: draining to between resume (2) and shed (4) must NOT
  // restore service...
  s.pump(3);  // depth 3
  EXPECT_FALSE(s.offer(request_at(t += 0.01)));
  EXPECT_EQ(s.tier(), core::ServiceTier::kSweepOnly);
  // ...only draining to the resume watermark does.
  s.pump(1);  // depth 2
  EXPECT_TRUE(s.offer(request_at(t += 0.01)));
  EXPECT_EQ(s.tier(), core::ServiceTier::kFull);
  EXPECT_ACCOUNTED(s);
}

TEST_F(ServiceOverload, BansAreNeverShed) {
  ServiceSupervisor s(tiny_options(fresh_dir("bans")));
  s.start();
  double t = 0.0;
  // Fill past every watermark with bans: all admitted, even beyond the
  // hard capacity bound.
  for (graph::NodeId who = 0; who < 10; ++who) {
    EXPECT_TRUE(s.offer(ban_of(who, t += 0.01)));
    EXPECT_ACCOUNTED(s);
  }
  EXPECT_EQ(s.queue_depth(), 10u);  // capacity is 8
  EXPECT_EQ(s.shed_total(), 0u);
  EXPECT_EQ(s.tier(), core::ServiceTier::kSweepOnly);
  // A non-ban at depth >= capacity is a capacity shed, counted apart
  // from the tier sheds.
  EXPECT_FALSE(s.offer(request_at(t += 0.01)));
  EXPECT_EQ(s.counters().shed_capacity, 1u);
  EXPECT_EQ(s.counters().shed_sweep_only, 0u);
  EXPECT_ACCOUNTED(s);
}

TEST_F(ServiceOverload, PeriodicSweepFlagsEvidenceIngestMissed) {
  ServiceOptions opts = tiny_options(fresh_dir("sweep"));
  opts.detector.rule.invite_rate_min = 2.0;
  opts.detector.rule.min_requests = 3;
  opts.detector.ingest.watermark_hours = 0.0;  // apply in arrival order
  opts.detector.overload.queue_capacity = 64;
  opts.detector.overload.shed_watermark = 32;
  opts.detector.overload.sweep_only_watermark = 48;
  opts.detector.overload.resume_watermark = 8;
  ServiceSupervisor s(opts);
  s.start();
  double t = 0.0;
  auto seeded = [&](graph::NodeId u, graph::NodeId v) {
    return osn::Event{osn::EventType::kFriendshipSeeded, u, v, t += 0.001};
  };
  // Account 1 starts with two mutually-linked friends: clustering 1.0,
  // safely above the rule's clustering_max.
  s.offer(seeded(1, 2));
  s.offer(seeded(2, 3));
  s.offer(seeded(1, 3));
  // A request burst: rate and accept-ratio cross the thresholds, but
  // the high clustering keeps every ingest-time re-check negative.
  for (int k = 0; k < 8; ++k) {
    s.offer(request_at(t += 0.1, 1, static_cast<graph::NodeId>(10 + k)));
  }
  // Seeded friendships dilute clustering below the threshold — and the
  // seeded-friendship handler (rightly) re-checks nobody.
  for (graph::NodeId v = 20; v < 33; ++v) s.offer(seeded(1, v));
  s.pump();
  EXPECT_ACCOUNTED(s);
  EXPECT_TRUE(s.take_flagged().records.empty());
  // Only the periodic sweep re-evaluates existing evidence without new
  // ingestion; it must catch the account the event path missed.
  const std::size_t newly = s.sweep_flags(/*now=*/2.0);
  EXPECT_EQ(newly, 1u);
  const core::FlagBatch flags = s.take_flagged();
  ASSERT_EQ(flags.records.size(), 1u);
  EXPECT_EQ(flags.records.front().account, 1u);
  EXPECT_DOUBLE_EQ(flags.records.front().flagged_at, 2.0);
  EXPECT_ACCOUNTED(s);
}

TEST_F(ServiceOverload, ColdStartReplaysEveryVerdictKind) {
  // A WAL holding every verdict a record can carry — admitted at each of
  // the three tiers, a low-priority shed, a sweep-only shed, bans pushed
  // past capacity and a capacity shed — replays through the same apply
  // step the live offers ran. Nothing is pumped, so a cold start must
  // land on exactly the live accounting.
  const std::string dir = fresh_dir("replay_verdicts");
  auto& registry = core::metrics::MetricsRegistry::instance();
  const auto shed_metrics = [&registry] {
    return std::vector<std::uint64_t>{
        registry.counter("service.shed.low_priority").value(),
        registry.counter("service.shed.sweep_only").value(),
        registry.counter("service.shed.capacity").value()};
  };
  registry.reset();
  std::string live_stats;
  ServiceCounters live_counters;
  core::ServiceTier live_tier = core::ServiceTier::kFull;
  {
    ServiceSupervisor s(tiny_options(dir));
    s.start();
    double t = 0.0;
    for (int i = 0; i < 4; ++i) EXPECT_TRUE(s.offer(request_at(t += 0.01)));
    EXPECT_TRUE(s.offer(request_at(t += 0.01)));  // depth 4
    EXPECT_EQ(s.tier(), core::ServiceTier::kShedLowPriority);
    EXPECT_FALSE(s.offer(
        osn::Event{osn::EventType::kAccountCreated, 9, 9, t += 0.01}));
    EXPECT_TRUE(s.offer(request_at(t += 0.01)));   // depth 5 -> 6
    EXPECT_FALSE(s.offer(request_at(t += 0.01)));  // sweep-only shed
    EXPECT_EQ(s.tier(), core::ServiceTier::kSweepOnly);
    for (graph::NodeId who = 20; who < 24; ++who) {
      EXPECT_TRUE(s.offer(ban_of(who, t += 0.01)));
    }
    EXPECT_EQ(s.queue_depth(), 10u);  // capacity is 8
    EXPECT_FALSE(s.offer(request_at(t += 0.01)));  // capacity shed
    EXPECT_EQ(s.counters().shed_low_priority, 1u);
    EXPECT_EQ(s.counters().shed_sweep_only, 1u);
    EXPECT_EQ(s.counters().shed_capacity, 1u);
    EXPECT_ACCOUNTED(s);
    live_stats = s.stats_json();
    live_counters = s.counters();
    live_tier = s.tier();
  }
  const std::vector<std::uint64_t> before_start = shed_metrics();
#if SYBIL_METRICS_COMPILED
  if (core::metrics::metrics_enabled()) {
    EXPECT_EQ(before_start, (std::vector<std::uint64_t>{1, 1, 1}));
  }
#endif

  ServiceSupervisor r(tiny_options(dir));
  const RecoveryReport report = r.start();
  EXPECT_TRUE(report.cold_start);
  EXPECT_EQ(report.records_replayed, live_counters.offered);
  EXPECT_EQ(r.stats_json(), live_stats);
  EXPECT_TRUE(r.counters() == live_counters);
  EXPECT_EQ(r.tier(), live_tier);
  EXPECT_ACCOUNTED(r);
  // Replay re-counts its verdicts in the service's own counters only:
  // the registry's shed rows count live offers.
  EXPECT_EQ(shed_metrics(), before_start);
  registry.reset();
}

TEST_F(ServiceOverload, RecoveredBacklogShedsLikeTheUninterruptedRun) {
  // A restart leaves the unpumped records in the WAL, read back by
  // pump() through a cursor, not in the queue. They still count toward
  // the watermarks and the capacity bound: offers made after start()
  // and before any pump shed exactly as they do on a supervisor that
  // never stopped.
  const std::string dir = fresh_dir("cursor_backlog");
  ServiceSupervisor live(tiny_options(fresh_dir("cursor_backlog_live")));
  live.start();
  double t = 0.0;
  std::vector<osn::Event> head;
  for (int i = 0; i < 5; ++i) head.push_back(request_at(t += 0.01));
  {
    ServiceSupervisor s(tiny_options(dir));
    s.start();
    for (const osn::Event& e : head) s.offer(e);
  }  // stopped with five records queued
  for (const osn::Event& e : head) live.offer(e);
  ServiceSupervisor r(tiny_options(dir));
  r.start();
  EXPECT_EQ(r.queue_depth(), 5u);
  EXPECT_EQ(r.tier(), live.tier());
  EXPECT_ACCOUNTED(r);

  // Low-priority sheds at depth 5, a request lifts it to 6 (sweep-only),
  // then bans past capacity and a capacity shed; a partial pump in the
  // middle drains the recovered records first.
  std::vector<osn::Event> tail = {
      osn::Event{osn::EventType::kAccountCreated, 9, 9, t += 0.01},
      request_at(t += 0.01),
      request_at(t += 0.01),
      ban_of(20, t += 0.01),
      ban_of(21, t += 0.01),
      request_at(t += 0.01),
  };
  const auto offer_both = [&](const osn::Event& e) {
    EXPECT_EQ(r.offer(e), live.offer(e));
    EXPECT_EQ(r.tier(), live.tier());
    EXPECT_EQ(r.queue_depth(), live.queue_depth());
    EXPECT_ACCOUNTED(r);
  };
  for (const osn::Event& e : tail) offer_both(e);
  EXPECT_EQ(r.pump(3), live.pump(3));
  EXPECT_EQ(r.queue_depth(), live.queue_depth());
  for (graph::NodeId who = 22; who < 26; ++who) offer_both(ban_of(who, t));
  offer_both(request_at(t += 0.01));  // past capacity
  EXPECT_EQ(r.stats_json(), live.stats_json());
  EXPECT_GE(r.counters().shed_low_priority, 1u);
  EXPECT_GE(r.counters().shed_sweep_only, 1u);
  EXPECT_GE(r.counters().shed_capacity, 1u);
  r.flush();
  live.flush();
  EXPECT_EQ(r.stats_json(), live.stats_json());
  EXPECT_ACCOUNTED(r);
}

TEST_F(ServiceOverload, StatsJsonCarriesShedBreakdownAndTier) {
  ServiceSupervisor s(tiny_options(fresh_dir("stats")));
  s.start();
  double t = 0.0;
  for (int i = 0; i < 7; ++i) s.offer(request_at(t += 0.01));
  const std::string json = s.stats_json();
  EXPECT_NE(json.find("\"offered\":7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shed\":{\"low_priority\":0,\"sweep_only\":1,"
                       "\"capacity\":0,\"total\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"tier\":\"sweep-only\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"deadlettered\":{\"total\":0"), std::string::npos)
      << json;
}

TEST_F(ServiceOverload, ValidatesOverloadAndServiceOptions) {
  core::DetectorOptions d;
  d.overload.resume_watermark = d.overload.shed_watermark;  // no hysteresis
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = core::DetectorOptions{};
  d.overload.sweep_only_watermark = d.overload.queue_capacity + 1;
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d = core::DetectorOptions{};
  d.overload.shed_watermark = d.overload.sweep_only_watermark + 1;
  EXPECT_THROW(d.validate(), std::invalid_argument);

  ServiceOptions s;
  s.dir = "";
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.dir = "somewhere";
  s.checkpoint_retain = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.checkpoint_retain = 1;
  s.wal_segment_records = 0;
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s.wal_segment_records = 1;
  EXPECT_NO_THROW(s.validate());
}

TEST_F(ServiceOverload, OperationsBeforeStartAreRejected) {
  ServiceSupervisor s(tiny_options(fresh_dir("nostart")));
  EXPECT_THROW(s.offer(request_at(0.0)), std::logic_error);
  EXPECT_THROW(s.commit(), std::logic_error);
  EXPECT_THROW(s.pump(), std::logic_error);
  EXPECT_THROW(s.checkpoint_now(), std::logic_error);
  s.start();
  EXPECT_THROW(s.start(), std::logic_error);  // and never twice
}

}  // namespace
}  // namespace sybil::service
