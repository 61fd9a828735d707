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
//     under service.shard.<i>.* sum exactly into the service.* twins.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <set>
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
  const std::string dir = ::testing::TempDir() + "/sybil_shard_" + name;
  fs::remove_all(dir);
  return dir;
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

  // Single-party events go to the actor's owner only.
  const auto created =
      route_shards({osn::EventType::kAccountCreated, ids2[0], ids2[0], 0.0},
                   kN);
  EXPECT_EQ(created, (std::vector<std::uint32_t>{2}));

  // Pair events double-deliver to both owners, ascending...
  const auto pair = route_shards(
      {osn::EventType::kRequestSent, ids2[0], ids0[0], 1.0}, kN);
  EXPECT_EQ(pair, (std::vector<std::uint32_t>{0, 2}));
  // ...collapsing to one copy when the parties share a shard.
  const auto collapsed = route_shards(
      {osn::EventType::kRequestSent, ids0[0], ids0[1], 1.0}, kN);
  EXPECT_EQ(collapsed, (std::vector<std::uint32_t>{0}));

  // Edge-creating and ban events broadcast; unknown types route like a
  // pair so some shard's dead-letter path classifies them.
  for (const auto type : {osn::EventType::kRequestAccepted,
                          osn::EventType::kFriendshipSeeded,
                          osn::EventType::kAccountBanned}) {
    EXPECT_EQ(route_shards({type, ids0[0], ids2[0], 2.0}, kN),
              (std::vector<std::uint32_t>{0, 1, 2, 3}));
  }
  EXPECT_EQ(route_shards(
                {static_cast<osn::EventType>(0xEE), ids2[0], ids0[0], 3.0},
                kN),
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
