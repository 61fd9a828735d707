// Sharded-service suite (docs/ROBUSTNESS.md §Sharded recovery):
//
//   * the routing table: owner placement is stable and balanced, pair
//     events double-deliver to both owners, edge/ban events broadcast;
//   * cross-shard exactly-once: a friend-request event landing on two
//     shards is WAL-logged once per shard, redelivery below a shard's
//     frontier is suppressed, and the owner-filtered merge never
//     double-counts an account;
//   * the N-vs-1 equivalence: the merged N-shard FlagBatch is
//     byte-identical to the 1-shard run, at SYBIL_THREADS=1 and 8;
//   * per-shard isolation: one overloaded shard sheds and degrades
//     alone while its peers stay at full service;
//   * per-shard recovery: a process crash at EVERY storage op of shard
//     1 (its own io::FaultyVfs) while shards 0 and 2 run clean — per-
//     shard stats JSON and the merged flags are byte-identical to the
//     uninterrupted run; a strided whole-process sweep (one device
//     under the whole fleet) proves the same for the min-frontier
//     resume path;
//   * foreign state fails loudly: a checkpoint or WAL segment written
//     by another shard identity refuses to load, and a state root with
//     directories from a larger partition count refuses to start;
//   * metric aggregation: per-reason dead-letter counters published
//     under service.shard.<i>.* sum exactly into the service.* twins;
//   * a flush that fails midway: the drains run in the shard lanes, the
//     commits in shard order, so a fault on shard 1 leaves shards 2-3
//     drained but untouched on disk, and a retried flush ends exactly
//     where an undisturbed one does;
//   * one stream clock: a burst far behind an event no copy of it ever
//     reaches is dead-lettered on 2 shards exactly as on 1, and a crash
//     at every storage op (one shard's, or the whole fleet's) recovers
//     the clock the re-driven copies are stamped with.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/metrics/metrics.h"
#include "core/parallel.h"
#include "io/error.h"
#include "io/faulty_vfs.h"
#include "service/router.h"
#include "service/wal.h"
#include "service/workload.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class Shard : public ::testing::Test {
 protected:
  // Shard suites churn throwaway checkpoints; skip fsync (same knob and
  // rationale as the recovery suite).
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

// Heavy crash sweeps get their own fixture name so the tsan preset can
// select the light tests by name (Shard[.]) without paying for the
// boundary sweep under a 10x-slowdown sanitizer.
using ShardedRecovery = Shard;

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_shard_", name);
}

/// Shed-free shard template with the relaxed rule the synthetic burst
/// senders cross. Default overload watermarks are far above anything
/// these workloads queue, so admission never depends on pump cadence —
/// the precondition for N-vs-1 and crash-resume equivalence checks.
ShardRouterOptions make_router_options(const std::string& dir,
                                       std::uint32_t shards) {
  ShardRouterOptions o;
  o.shards = shards;
  o.shard.dir = dir;
  o.shard.wal_fsync = WalFsync::kNever;
  o.shard.wal_segment_records = 32;
  o.shard.checkpoint_every = 96;
  o.shard.checkpoint_retain = 2;
  o.shard.detector.rule.invite_rate_min = 4.0;
  o.shard.detector.rule.outgoing_accept_max = 0.5;
  o.shard.detector.rule.min_requests = 5;
  return o;
}

WorkloadOptions small_workload(std::uint64_t seed) {
  WorkloadOptions w;
  w.accounts = 64;
  w.events = 400;
  w.hours = 6.0;
  w.seed = seed;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  w.malformed_fraction = 0.02;
  return w;
}

/// Offers log[from..N) with seq == index and a fixed pump cadence, then
/// flushes. With shed-free options the cadence is immaterial to every
/// counter in stats_json, so crash-resume re-drives need no schedule
/// alignment (unlike the single-shard overloaded recovery suite).
void drive(ShardRouter& router, const std::vector<osn::Event>& log,
           std::uint64_t from) {
  for (std::uint64_t i = from; i < log.size(); ++i) {
    router.offer(log[i], i);
    if (i % 16 == 15) router.pump();
  }
  router.flush(/*checkpoint=*/true);
}

void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
    ASSERT_EQ(a[i].features.as_vector(), b[i].features.as_vector()) << i;
  }
}

/// Durable per-shard outcome: each shard's canonical stats JSON plus
/// the owner-merged flags. This is what crash recovery must reproduce
/// byte-for-byte; the router's own copies/offers counters are process-
/// lifetime transport accounting and legitimately differ once a resume
/// re-drives (suppressed copies are the retry protocol working).
struct ShardedRun {
  std::vector<std::string> shard_stats;
  core::FlagBatch flags;
};

ShardedRun capture(ShardRouter& router, double sweep_at) {
  router.sweep_flags(sweep_at);
  EXPECT_TRUE(router.accounting_ok());
  ShardedRun run;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    run.shard_stats.push_back(router.shard(i).stats_json());
  }
  run.flags = router.take_flagged();
  return run;
}

/// First `want` account ids owned by `target` under `shards`.
std::vector<graph::NodeId> owned_ids(std::uint32_t target,
                                     std::uint32_t shards,
                                     std::size_t want) {
  std::vector<graph::NodeId> out;
  for (graph::NodeId id = 1; out.size() < want; ++id) {
    if (shard_of(id, shards) == target) out.push_back(id);
  }
  return out;
}

/// The stream-clock probe: seq 0 is a request at t=100 between two
/// accounts of shard 0; seqs 1-30 are requests at t~40 from one account
/// of shard 1 to others of shard 1, so no copy of them reaches shard 0.
/// With the 48 h window every one of them is a time regression against
/// the stream, whatever shard holds it. `tail` in-order requests from
/// the same sender follow at t>100, and they flag it.
std::vector<osn::Event> late_burst_log(std::uint32_t shards, std::size_t tail) {
  const std::vector<graph::NodeId> zero = owned_ids(0, shards, 2);
  const std::vector<graph::NodeId> one = owned_ids(1, shards, 32);
  std::vector<osn::Event> log;
  log.push_back({osn::EventType::kRequestSent, zero[0], zero[1], 100.0});
  for (std::size_t k = 0; k < 30; ++k) {
    log.push_back({osn::EventType::kRequestSent, one[0], one[1 + k],
                   40.0 + 0.005 * static_cast<double>(k)});
  }
  for (std::size_t j = 0; j < tail; ++j) {
    log.push_back({osn::EventType::kRequestSent, one[0], one[1 + j % 31],
                   100.0 + 0.01 * static_cast<double>(j + 1)});
  }
  return log;
}

TEST_F(Shard, LateBurstIsDeadLetteredOnEveryShardCount) {
  const std::vector<osn::Event> log = late_burst_log(2, 0);
  for (const std::uint32_t shards : {1u, 2u}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ShardRouter router(make_router_options(
        fresh_dir("late_burst_" + std::to_string(shards)), shards));
    router.start();
    router.offer_batch(log, 0);
    router.flush(/*checkpoint=*/false);
    router.sweep_flags(101.0);
    EXPECT_TRUE(router.take_flagged().records.empty());
    std::uint64_t regressions = 0;
    std::uint64_t applied = 0;
    for (std::uint32_t i = 0; i < shards; ++i) {
      const core::StreamDetector& d = router.shard(i).detector();
      regressions +=
          d.deadletter_by_reason(core::StreamErrorCode::kTimeRegression);
      applied += d.applied_total();
    }
    EXPECT_EQ(regressions, 30u);
    EXPECT_EQ(applied, 1u);
    EXPECT_TRUE(router.accounting_ok());
  }
}

/// A shard taken down while the stream runs on for more than the 48 h
/// window replays its missed copies after restart_shard() on a clock of
/// its own: each copy is stamped with the stream clock at its seq, as
/// in the uninterrupted run, not with the clock the stream has reached
/// since — which would dead-letter all of them as time regressions.
TEST_F(Shard, RestartedShardCatchesUpOnItsOwnClock) {
  const std::vector<graph::NodeId> zero = owned_ids(0, 2, 2);
  const std::vector<graph::NodeId> one = owned_ids(1, 2, 9);
  std::vector<osn::Event> log;
  for (std::size_t i = 0; i < 1200; ++i) {
    const double t = 0.1 * static_cast<double>(i);
    if (i % 2 == 0) {
      log.push_back({osn::EventType::kRequestSent, zero[0], zero[1], t});
    } else {
      log.push_back({osn::EventType::kRequestSent, one[0],
                     one[1 + (i / 2) % 8], t});
    }
  }
  const auto run = [&](const std::string& dir, bool disturbed) {
    ShardRouter router(make_router_options(dir, 2));
    router.start();
    if (disturbed) {
      router.offer_batch(std::span(log).first(100), 0);
      router.mark_down(1);  // its WAL holds seqs up to 99 (t=9.9)
      router.offer_batch(std::span(log).subspan(100, 600), 100);  // to t=69.9
      router.restart_shard(1);
      EXPECT_EQ(router.next_seq(), 100u);
    }
    const std::uint64_t from = router.next_seq();
    router.offer_batch(std::span(log).subspan(from), from);
    router.flush(/*checkpoint=*/false);
    return capture(router, 121.0);
  };
  const ShardedRun base = run(fresh_dir("catchup_base"), false);
  const ShardedRun caught_up = run(fresh_dir("catchup_down"), true);
  ASSERT_FALSE(base.flags.records.empty());
  EXPECT_NE(base.shard_stats[1].find("\"time-regression\":0"),
            std::string::npos);
  EXPECT_EQ(caught_up.shard_stats, base.shard_stats);
  expect_flags_equal(caught_up.flags, base.flags);
}

TEST_F(Shard, OwnerPlacementIsStableAndBalanced) {
  std::vector<std::uint64_t> hits(8, 0);
  for (graph::NodeId id = 0; id < 10000; ++id) {
    const std::uint32_t s = shard_of(id, 8);
    ASSERT_LT(s, 8u);
    ASSERT_EQ(s, shard_of(id, 8)) << "placement must be a pure function";
    ASSERT_EQ(shard_of(id, 1), 0u);
    ++hits[s];
  }
  for (std::size_t s = 0; s < hits.size(); ++s) {
    // 10000/8 = 1250 expected; a mixing failure (striping) would put
    // whole residue classes on one shard and blow far past this band.
    EXPECT_GT(hits[s], 1000u) << "shard " << s;
    EXPECT_LT(hits[s], 1500u) << "shard " << s;
  }
}

TEST_F(Shard, RoutingTableShape) {
  constexpr std::uint32_t kN = 4;
  const auto ids0 = owned_ids(0, kN, 2);
  const auto ids2 = owned_ids(2, kN, 1);
  // The explicit targets of a plan that does not broadcast.
  const auto targets = [](const RoutePlan& plan) {
    EXPECT_FALSE(plan.broadcast);
    return std::vector<std::uint32_t>(plan.target.begin(),
                                      plan.target.begin() + plan.count);
  };

  // Single-party events go to the actor's owner only.
  EXPECT_EQ(targets(plan_route(
                {osn::EventType::kAccountCreated, ids2[0], ids2[0], 0.0}, kN)),
            (std::vector<std::uint32_t>{2}));

  // Pair events double-deliver to both owners, ascending...
  EXPECT_EQ(targets(plan_route(
                {osn::EventType::kRequestSent, ids2[0], ids0[0], 1.0}, kN)),
            (std::vector<std::uint32_t>{0, 2}));
  // ...collapsing to one copy when the parties share a shard.
  EXPECT_EQ(targets(plan_route(
                {osn::EventType::kRequestSent, ids0[0], ids0[1], 1.0}, kN)),
            (std::vector<std::uint32_t>{0}));

  // Edge-creating and ban events broadcast; unknown types route like a
  // pair so some shard's dead-letter path classifies them.
  for (const auto type : {osn::EventType::kRequestAccepted,
                          osn::EventType::kFriendshipSeeded,
                          osn::EventType::kAccountBanned}) {
    EXPECT_TRUE(plan_route({type, ids0[0], ids2[0], 2.0}, kN).broadcast);
  }
  EXPECT_EQ(targets(plan_route(
                {static_cast<osn::EventType>(0xEE), ids2[0], ids0[0], 3.0},
                kN)),
            (std::vector<std::uint32_t>{0, 2}));
}

TEST_F(Shard, PairEventLandsOnBothShardsExactlyOnce) {
  const std::string dir = fresh_dir("pair");
  ShardRouter router(make_router_options(dir, 2));
  router.start();
  const graph::NodeId a = owned_ids(0, 2, 1)[0];
  const graph::NodeId b = owned_ids(1, 2, 1)[0];

  const RouteResult first =
      router.offer({osn::EventType::kRequestSent, a, b, 1.0}, 0);
  EXPECT_EQ(first.routed, 2u);
  EXPECT_EQ(first.delivered, 2u);
  EXPECT_EQ(first.suppressed, 0u);
  EXPECT_EQ(router.shard(0).offered(), 1u);  // one WAL copy per owner
  EXPECT_EQ(router.shard(1).offered(), 1u);

  // At-least-once upstream: the identical (event, seq) redelivery is
  // suppressed by both frontiers — the WALs stay duplicate-free.
  const RouteResult again =
      router.offer({osn::EventType::kRequestSent, a, b, 1.0}, 0);
  EXPECT_EQ(again.delivered, 0u);
  EXPECT_EQ(again.suppressed, 2u);
  EXPECT_EQ(router.shard(0).offered(), 1u);
  EXPECT_EQ(router.shard(1).offered(), 1u);

  router.flush(/*checkpoint=*/false);  // pump + drain the reorder buffer
  // Each owner applies its replica copy once; global truth stays with
  // the owner filter, and the accounting sees exactly the 2-copy fanout.
  EXPECT_EQ(router.shard(0).detector().applied_total(), 1u);
  EXPECT_EQ(router.shard(1).detector().applied_total(), 1u);
  EXPECT_TRUE(router.accounting_ok());

  // Auto-seqs cannot define a redelivery frontier.
  EXPECT_THROW(router.offer({osn::EventType::kRequestSent, a, b, 2.0},
                            core::StreamDetector::kAutoSeq),
               std::invalid_argument);
}

TEST_F(Shard, FrontierSurvivesRestartAndSuppressesRedelivery) {
  const std::string dir = fresh_dir("frontier");
  const WorkloadOptions w = small_workload(21);
  const std::vector<osn::Event> log = synthetic_workload(w);
  std::vector<std::string> stats_before;
  {
    ShardRouter router(make_router_options(dir, 3));
    router.start();
    drive(router, log, 0);
    for (std::uint32_t i = 0; i < 3; ++i) {
      stats_before.push_back(router.shard(i).stats_json());
    }
  }
  ShardRouter router(make_router_options(dir, 3));
  const RouterRecoveryReport report = router.start();
  // The min frontier trails the stream end by however many tail events
  // happened not to route to the laziest shard — never past it.
  EXPECT_GT(report.next_seq, 0u);
  EXPECT_LE(report.next_seq, log.size());
  EXPECT_EQ(report.next_seq, router.next_seq());

  // Re-drive the whole stream: every copy is below every frontier.
  for (std::uint64_t i = 0; i < log.size(); ++i) {
    const RouteResult r = router.offer(log[i], i);
    EXPECT_EQ(r.delivered, 0u) << "seq " << i;
    EXPECT_EQ(r.suppressed, r.routed) << "seq " << i;
  }
  router.flush(/*checkpoint=*/false);
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(router.shard(i).stats_json(), stats_before[i]) << "shard " << i;
  }
  EXPECT_TRUE(router.accounting_ok());
}

// Explicit seqs ascend strictly per shard. A bare supervisor refuses a
// seq below its frontier before the WAL append; a router never gets
// that far, because it suppresses the redelivery itself.
TEST_F(Shard, SeqBelowFrontierIsRefusedBeforeTheWal) {
  const osn::Event e{osn::EventType::kRequestSent, 1, 2, 0.5};
  const std::string dir = fresh_dir("seq_order");
  ServiceOptions o;
  o.dir = dir;
  o.checkpoint_every = 0;
  {
    ServiceSupervisor s(o);
    s.start();
    s.offer(e, 5);
    for (const std::uint64_t seq : {4u, 5u}) {
      EXPECT_THROW(s.offer(e, seq), std::invalid_argument) << "seq " << seq;
    }
    EXPECT_EQ(s.offered(), 1u);
    EXPECT_EQ(s.storage_buffered(), 1u);  // nothing appended
    EXPECT_EQ(s.next_seq(), 6u);
    EXPECT_TRUE(s.accounting_ok());
    s.offer(e, 6);
    s.offer(e);  // auto seqs carry no position
    s.commit();
  }
  WalScanReport scan;
  const std::vector<WalRecord> records = scan_wal(dir + "/wal", 0, scan, 0);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0].seq, 5u);
  EXPECT_EQ(records[1].seq, 6u);

  ShardRouter router(make_router_options(fresh_dir("seq_order_router"), 2));
  router.start();
  router.offer(e, 7);
  RouteResult again;
  EXPECT_NO_THROW(again = router.offer(e, 7));
  EXPECT_GT(again.routed, 0u);
  EXPECT_EQ(again.suppressed, again.routed);
  EXPECT_EQ(again.delivered, 0u);
  EXPECT_TRUE(router.accounting_ok());
}

TEST_F(Shard, MergedFlagsMatchSingleShardAcrossThreadCounts) {
  WorkloadOptions w;
  w.accounts = 600;
  w.events = 4000;
  w.hours = 10.0;
  w.seed = 5;
  w.burst_senders = 4;
  w.burst_fraction = 0.25;
  w.malformed_fraction = 0.02;
  const std::vector<osn::Event> log = synthetic_workload(w);

  const auto run = [&](std::uint32_t shards, const std::string& dir) {
    ShardRouter router(make_router_options(dir, shards));
    router.start();
    drive(router, log, 0);
    return capture(router, w.hours + 1.0);
  };

  core::set_thread_count(1);
  const ShardedRun single = run(1, fresh_dir("eq_n1"));
  const ShardedRun sharded = run(4, fresh_dir("eq_n4"));
  core::set_thread_count(8);
  const ShardedRun sharded8 = run(4, fresh_dir("eq_n4_t8"));
  core::set_thread_count(0);  // back to automatic

  ASSERT_FALSE(single.flags.records.empty())
      << "the burst senders must flag for the equivalence check to bite";
  expect_flags_equal(sharded.flags, single.flags);
  expect_flags_equal(sharded8.flags, single.flags);

  // The owner filter guarantees each account flags at most once in the
  // merged batch — the flag-level face of cross-shard exactly-once.
  std::set<graph::NodeId> accounts;
  for (const auto& r : sharded.flags.records) {
    EXPECT_TRUE(accounts.insert(r.account).second)
        << "account " << r.account << " flagged on two shards";
  }
}

TEST_F(Shard, OneOverloadedShardShedsAlone) {
  auto options = make_router_options(fresh_dir("overload"), 3);
  options.shard.detector.overload.queue_capacity = 24;
  options.shard.detector.overload.shed_watermark = 8;
  options.shard.detector.overload.sweep_only_watermark = 16;
  options.shard.detector.overload.resume_watermark = 4;
  ShardRouter router(options);
  router.start();

  // Pair traffic whose endpoints both live on shard 1: every copy
  // collapses onto the victim, nothing reaches its peers.
  const auto ids = owned_ids(1, 3, 12);
  double t = 0.0;
  std::uint64_t seq = 0;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
      router.offer({osn::EventType::kRequestSent, ids[i], ids[i + 1],
                    t += 0.01},
                   seq++);
    }
  }
  EXPECT_GT(router.shard(1).shed_total(), 0u);
  EXPECT_NE(router.shard(1).tier(), core::ServiceTier::kFull);
  for (const std::uint32_t peer : {0u, 2u}) {
    EXPECT_EQ(router.shard(peer).shed_total(), 0u) << "shard " << peer;
    EXPECT_EQ(router.shard(peer).tier(), core::ServiceTier::kFull)
        << "shard " << peer;
    EXPECT_EQ(router.shard(peer).queue_depth(), 0u) << "shard " << peer;
  }
  EXPECT_TRUE(router.accounting_ok());

  // Draining the victim's queue recovers it through the hysteresis
  // band (tier decisions happen at the next admission, not mid-pump).
  router.pump();
  router.offer({osn::EventType::kRequestSent, ids[0], ids[1], t += 0.01},
               seq++);
  EXPECT_EQ(router.shard(1).tier(), core::ServiceTier::kFull);
}

TEST_F(Shard, CheckpointFromAnotherShardIdentityFailsLoudly) {
  const std::string dir = fresh_dir("identity");
  ServiceOptions o;
  o.dir = dir;
  o.wal_fsync = WalFsync::kNever;
  o.shard_id = 0;
  o.shard_count = 2;
  {
    ServiceSupervisor s(o);
    s.start();
    s.offer({osn::EventType::kRequestSent, 1, 2, 0.5}, 0);
    s.commit();
    s.flush();  // leaves a checkpoint stamped (shard 0 of 2)
  }
  // Same state handed to the wrong shard id, or to a router with a
  // different partition count: refuse to load, never fall back — this
  // is misconfiguration, not corruption.
  ServiceOptions wrong_id = o;
  wrong_id.shard_id = 1;
  EXPECT_THROW(ServiceSupervisor(wrong_id).start(), std::logic_error);
  ServiceOptions wrong_count = o;
  wrong_count.shard_count = 3;
  EXPECT_THROW(ServiceSupervisor(wrong_count).start(), std::logic_error);

  // The WAL segments carry the same identity stamp independently.
  WalScanReport report;
  EXPECT_THROW(scan_wal(dir + "/wal", 0, report, /*expected_shard=*/1),
               io::SnapshotError);
  EXPECT_NO_THROW(scan_wal(dir + "/wal", 0, report, /*expected_shard=*/0));
}

TEST_F(Shard, ReshardedStateRootRefusesToStart) {
  const std::string dir = fresh_dir("reshard");
  {
    ShardRouter router(make_router_options(dir, 4));
    router.start();
    router.offer({osn::EventType::kRequestSent, 1, 2, 0.5}, 0);
    router.flush();
  }
  ShardRouter shrunk(make_router_options(dir, 2));
  EXPECT_THROW(shrunk.start(), std::runtime_error);
  // The original partition count still starts fine.
  ShardRouter same(make_router_options(dir, 4));
  EXPECT_NO_THROW(same.start());
}

#if SYBIL_METRICS_COMPILED
TEST_F(Shard, DeadLetterMetricsAggregateExactly) {
  auto& registry = core::metrics::MetricsRegistry::instance();
  registry.reset();

  const WorkloadOptions w = [] {
    WorkloadOptions o = small_workload(33);
    o.events = 1200;
    o.malformed_fraction = 0.05;
    return o;
  }();
  const std::vector<osn::Event> log = synthetic_workload(w);
  ShardRouter router(make_router_options(fresh_dir("metrics"), 2));
  router.start();
  drive(router, log, 0);  // flush() publishes the final deltas

  std::uint64_t detector_total = 0;
  for (std::size_t r = 0; r < core::kStreamErrorCodeCount; ++r) {
    const auto code = static_cast<core::StreamErrorCode>(r);
    const std::string reason = core::to_string(code);
    std::uint64_t per_shard_sum = 0;
    std::uint64_t detector_sum = 0;
    for (std::uint32_t i = 0; i < router.shards(); ++i) {
      per_shard_sum += registry
                           .counter("service.shard." + std::to_string(i) +
                                    ".deadletter." + reason)
                           .value();
      detector_sum += router.shard(i).detector().deadletter_by_reason(code);
    }
    // Per-shard copies sum exactly into the aggregate twin, and both
    // equal the detectors' ground truth — no reason drifts.
    EXPECT_EQ(per_shard_sum,
              registry.counter("service.deadletter." + reason).value())
        << reason;
    EXPECT_EQ(per_shard_sum, detector_sum) << reason;
    detector_total += detector_sum;
  }
  ASSERT_GT(detector_total, 0u)
      << "the malformed mix must actually dead-letter";
  EXPECT_EQ(registry.counter("service.deadletter.total").value(),
            detector_total);
  registry.reset();
}
#endif  // SYBIL_METRICS_COMPILED

// ShardRouter::flush drains every shard in the parallel lanes, then
// commits and checkpoints them in ascending order. Shard 1's disk fails
// from the last batch on, so its flush-time commit retry fails too: the
// flush throws that fault, shard 0 is flushed, shards 2-3 are drained
// with no storage op issued, and once the disk heals a retried flush
// yields the undisturbed run's flags and per-shard stats.
TEST_F(Shard, FlushFailingMidwayRetriesToTheUndisturbedRun) {
  const WorkloadOptions w = small_workload(11);
  const std::vector<osn::Event> log = synthetic_workload(w);
  const std::span<const osn::Event> all(log);
  const std::size_t cut = log.size() - 40;

  const auto run = [&](const std::string& dir, bool fail) {
    std::vector<std::unique_ptr<io::FaultyVfs>> vfs;
    for (int i = 0; i < 4; ++i) {
      vfs.push_back(std::make_unique<io::FaultyVfs>(&crashtest::sweep_vfs()));
    }
    ShardRouterOptions o = make_router_options(dir, 4);
    o.shard.wal_fsync = WalFsync::kEveryAppend;
    o.shard_vfs = [&vfs](std::uint32_t i) -> io::Vfs* { return vfs[i].get(); };
    ShardRouter router(o);
    router.start();
    router.offer_batch(all.first(cut), 0);  // queued, not pumped
    if (fail) {
      io::FaultConfig nospace;
      nospace.fail_from = vfs[1]->ops();
      nospace.fail_count = 1u << 20;
      nospace.fail_kind = io::VfsFaultKind::kNoSpace;
      vfs[1]->configure(nospace);
    }
    router.offer_batch(all.subspan(cut), cut);
    if (fail) {
      EXPECT_TRUE(router.shard(1).storage_degraded());
      std::vector<std::uint64_t> ops;
      for (const auto& v : vfs) ops.push_back(v->ops());
      try {
        router.flush(/*checkpoint=*/true);
        ADD_FAILURE() << "flush succeeded on a full disk";
      } catch (const io::VfsError& e) {
        EXPECT_EQ(e.kind(), io::VfsFaultKind::kNoSpace) << e.what();
      }
      EXPECT_GT(vfs[0]->ops(), ops[0]) << "shard 0 was not checkpointed";
      for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(router.shard(i).queue_depth(), 0u) << i;
        EXPECT_EQ(router.shard(i).detector().buffered(), 0u) << i;
        if (i >= 2) {
          EXPECT_EQ(vfs[i]->ops(), ops[i]) << i;
        }
      }
      vfs[1]->clear_faults();
    }
    const std::uint64_t shard0_ops = vfs[0]->ops();
    router.flush(/*checkpoint=*/true);
    EXPECT_FALSE(router.shard(1).storage_degraded());
    if (fail) {
      // Nothing reached shard 0 since its save: the retry writes no
      // second copy of that generation.
      EXPECT_EQ(vfs[0]->ops(), shard0_ops) << "shard 0 saved twice";
    }
    return capture(router, w.hours + 1.0);
  };

  const ShardedRun base = run(fresh_dir("flush_clean"), false);
  const ShardedRun retried = run(fresh_dir("flush_fail"), true);
  ASSERT_FALSE(base.flags.records.empty());
  EXPECT_EQ(retried.shard_stats, base.shard_stats);
  expect_flags_equal(retried.flags, base.flags);
}

/// `victim` value that puts the faulty device under every shard.
constexpr std::uint32_t kWholeFleet = ~std::uint32_t{0};

/// The crash sweeps' 3-shard template: every record reaches its shard's
/// device as it is appended (kEveryAppend over the fsync-free sweep
/// vfs), and `faulty` (if any) sits under shard `victim` only — or
/// under the whole fleet, so one crash kills every shard at once.
ShardRouterOptions sweep_router_options(const std::string& dir,
                                        io::FaultyVfs* faulty = nullptr,
                                        std::uint32_t victim = kWholeFleet) {
  ShardRouterOptions o = make_router_options(dir, 3);
  o.shard.wal_fsync = WalFsync::kEveryAppend;
  o.shard.vfs = &crashtest::sweep_vfs();
  if (faulty == nullptr) return o;
  if (victim == kWholeFleet) {
    o.shard.vfs = faulty;
  } else {
    o.shard_vfs = [faulty, victim](std::uint32_t i) -> io::Vfs* {
      return i == victim ? static_cast<io::Vfs*>(faulty)
                         : &crashtest::sweep_vfs();
    };
  }
  return o;
}

/// Uninterrupted reference run over a fault-free FaultyVfs (placed as
/// in the sweep) whose op count is the sweep's iteration space.
ShardedRun run_baseline(const std::vector<osn::Event>& log,
                        const std::string& dir, double sweep_at,
                        std::uint32_t victim, std::uint64_t* ops) {
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  ShardRouter router(sweep_router_options(dir, &vfs, victim));
  router.start();
  drive(router, log, 0);
  *ops = vfs.ops();
  return capture(router, sweep_at);
}

TEST_F(ShardedRecovery, KillOneShardAtEveryBoundary) {
  constexpr std::uint32_t kVictim = 1;
  const WorkloadOptions w = small_workload(7);
  const std::vector<osn::Event> log = synthetic_workload(w);
  std::uint64_t ops = 0;
  const ShardedRun base = run_baseline(log, fresh_dir("kill_base"),
                                       w.hours + 1.0, kVictim, &ops);
  ASSERT_GT(ops, log.size() / 2);
  ASSERT_FALSE(base.flags.records.empty())
      << "the run must actually flag accounts for the comparison to bite";

  const std::string dir = fresh_dir("kill_sweep");
  for (std::uint64_t k = 0; k < ops; ++k) {
    fs::remove_all(dir);
    io::FaultyVfs vfs(&crashtest::sweep_vfs());
    crashtest::arm_crash(vfs, k);
    auto router =
        std::make_unique<ShardRouter>(sweep_router_options(dir, &vfs, kVictim));
    bool crashed = false;
    bool booted = false;
    try {
      router->start();
      booted = true;
      drive(*router, log, 0);
    } catch (const io::VfsError& e) {
      ASSERT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
      crashed = true;
    }
    ASSERT_TRUE(crashed) << "op " << k << " never reached";

    ShardedRun run;
    if (booted) {
      // Only the victim restarts; shards 0 and 2 keep their live state.
      // It goes down while its device is dead (its buffered bytes die
      // with it), then recovers from what the rebooted device holds.
      // Resume from the *minimum* frontier — the victim may have made
      // the crashing seq durable before a later-ordered shard saw it.
      router->mark_down(kVictim);
      vfs.reboot();
      router->restart_shard(kVictim);
      drive(*router, log, router->next_seq());
      run = capture(*router, w.hours + 1.0);
    } else {
      // A crash during boot takes the whole process with it: recover
      // the fleet in a fresh router instead.
      router.reset();
      ShardRouter rebooted(sweep_router_options(dir));
      rebooted.start();
      drive(rebooted, log, rebooted.next_seq());
      run = capture(rebooted, w.hours + 1.0);
    }
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_EQ(run.shard_stats[i], base.shard_stats[i])
          << "crash at op " << k << ", shard " << i;
    }
    expect_flags_equal(run.flags, base.flags);
    if (::testing::Test::HasFailure()) FAIL() << "crash at op " << k;
  }
}

/// The stream-clock probe under a crash at every storage op, of shard 1
/// alone (it restarts behind the stream and catches up on a clock of
/// its own) and of the whole fleet (a fresh router resumes the clock
/// from the shard at the minimum frontier): each recovery dead-letters
/// the same burst and ends byte-identical to the uninterrupted run.
TEST_F(ShardedRecovery, LateBurstKillSweepRecoversTheStreamClock) {
  const std::vector<osn::Event> log = late_burst_log(3, 120);
  for (const std::uint32_t victim : {1u, kWholeFleet}) {
    SCOPED_TRACE(victim == kWholeFleet ? "whole fleet" : "shard 1");
    std::uint64_t ops = 0;
    const ShardedRun base = run_baseline(log, fresh_dir("late_base"), 102.0,
                                         victim, &ops);
    ASSERT_EQ(base.flags.size(), 1u);
    ASSERT_NE(base.shard_stats[1].find("\"time-regression\":30"),
              std::string::npos)
        << base.shard_stats[1];

    const std::string dir = fresh_dir("late_sweep");
    for (std::uint64_t k = 0; k < ops; ++k) {
      fs::remove_all(dir);
      io::FaultyVfs vfs(&crashtest::sweep_vfs());
      crashtest::arm_crash(vfs, k);
      auto router = std::make_unique<ShardRouter>(
          sweep_router_options(dir, &vfs, victim));
      bool crashed = false;
      bool booted = false;
      try {
        router->start();
        booted = true;
        drive(*router, log, 0);
      } catch (const io::VfsError& e) {
        ASSERT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
        crashed = true;
      }
      ASSERT_TRUE(crashed) << "op " << k << " never reached";

      ShardedRun run;
      if (booted && victim != kWholeFleet) {
        router->mark_down(victim);
        vfs.reboot();
        router->restart_shard(victim);
        drive(*router, log, router->next_seq());
        run = capture(*router, 102.0);
      } else {
        router.reset();
        ShardRouter rebooted(sweep_router_options(dir));
        rebooted.start();
        drive(rebooted, log, rebooted.next_seq());
        run = capture(rebooted, 102.0);
      }
      for (std::uint32_t i = 0; i < 3; ++i) {
        ASSERT_EQ(run.shard_stats[i], base.shard_stats[i])
            << "crash at op " << k << ", shard " << i;
      }
      expect_flags_equal(run.flags, base.flags);
      if (::testing::Test::HasFailure()) FAIL() << "crash at op " << k;
    }
  }
}

/// Whole-process death: one device under the whole fleet, so every
/// shard's in-memory state (and buffered bytes) dies at once and a
/// fresh router resumes from the min-frontier of the recovered fleet.
/// Strided because the per-shard sweep above already covers every op
/// kind exhaustively; this pins the multi-shard resume path.
TEST_F(ShardedRecovery, WholeProcessKillSweepResumesFromMinFrontier) {
  const WorkloadOptions w = small_workload(9);
  const std::vector<osn::Event> log = synthetic_workload(w);
  std::uint64_t ops = 0;
  const ShardedRun base = run_baseline(log, fresh_dir("proc_base"),
                                       w.hours + 1.0, kWholeFleet, &ops);

  const std::string dir = fresh_dir("proc_sweep");
  for (std::uint64_t k = 0; k < ops; k += 13) {
    fs::remove_all(dir);
    {
      io::FaultyVfs vfs(&crashtest::sweep_vfs());
      crashtest::arm_crash(vfs, k);
      ShardRouter victim(sweep_router_options(dir, &vfs, kWholeFleet));
      bool crashed = false;
      try {
        victim.start();
        drive(victim, log, 0);
      } catch (const io::VfsError& e) {
        ASSERT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
        crashed = true;
      }
      ASSERT_TRUE(crashed) << "op " << k << " never reached";
    }  // process death: the whole router is abandoned on a dead device

    ShardRouter recovered(sweep_router_options(dir));
    const RouterRecoveryReport report = recovered.start();
    EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
    drive(recovered, log, report.next_seq);
    const ShardedRun run = capture(recovered, w.hours + 1.0);
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_EQ(run.shard_stats[i], base.shard_stats[i])
          << "crash at op " << k << ", shard " << i;
    }
    expect_flags_equal(run.flags, base.flags);
    if (::testing::Test::HasFailure()) FAIL() << "crash at op " << k;
  }
}

}  // namespace
}  // namespace sybil::service
