// Service-level suite for the `service.defense.*` sweep tier
// (docs/DEFENSES.md): the DefenseScorer riding inside the supervisor.
//
//   * contract gating — with DetectorOptions::defense off (the
//     default) stats_json carries no "defense" object and FlagRecords
//     stay unannotated, so every byte-identical contract of the
//     defense-off service is untouched;
//   * a process crash at EVERY storage op of the overloaded
//     500-account ground-truth run WITH the tier on — recovered stats
//     (including the defense object) and annotated flags are
//     byte-identical, across SYBIL_THREADS 1 and 8;
//   * checkpoint compatibility both ways: a defense-off supervisor
//     ignores a scorer section; a defense-ON supervisor refuses a
//     checkpoint without one (typed fallback → a WAL rebuild that lands
//     on the from-birth bytes, or a typed refusal to start when the WAL
//     was pruned);
//   * N-vs-1 shard identity with the tier on — edge events broadcast,
//     so every shard scores the same graph and merged annotated flags
//     match a single shard's, across thread counts;
//   * rank on read: a caller that takes flags only every third sweep,
//     after more events were pumped, still reads the scores of the
//     graph at the last sweep;
//   * the defense metric family: per-shard rows sum exactly into the
//     aggregate twins and match the scorers' ground truth.
//
// The checkpoint codec itself (golden binaries, typed load refusals)
// is tested in tests/io/service_checkpoint_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "core/metrics/metrics.h"
#include "core/parallel.h"
#include "detectors/sybilrank.h"
#include "graph/csr.h"
#include "io/error.h"
#include "io/faulty_vfs.h"
#include "osn/network.h"
#include "service/defense_scorer.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "stats/rng.h"
#include "support/crash_vfs.h"
#include "support/temp_path.h"

namespace sybil::service {
namespace {

namespace fs = std::filesystem;

class DefenseService : public ::testing::Test {
 protected:
  // The crash sweep commits thousands of checkpoints to a throwaway
  // dir; the durability knob exists exactly so such runs skip fsync.
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

std::string fresh_dir(const std::string& name) {
  return testsupport::fresh_temp_path("sybil_def_", name);
}

/// Same 500-account ground-truth log as the recovery suite: seeded
/// friendships, chatter, three burst senders, mixed accept/reject,
/// mid-stream bans — under options that deliberately overload.
std::vector<osn::Event> build_log(std::uint64_t seed) {
  osn::Network net(/*keep_event_log=*/true);
  stats::Rng rng(seed);
  constexpr int kAccounts = 500;
  for (int i = 0; i < kAccounts; ++i) net.add_account(osn::Account{});
  for (int i = 0; i < 60; ++i) {
    net.add_friendship(
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
        -1.0 * static_cast<double>(i));
  }
  for (double t = 0.0; t < 4.0; t += 1.0) {
    for (int k = 0; k < 15; ++k) {
      net.send_request(
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
          t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
    }
    for (int s = 0; s < 3; ++s) {
      for (int k = 0; k < 25; ++k) {
        net.send_request(
            static_cast<osn::NodeId>(10 + s),
            static_cast<osn::NodeId>(rng.uniform_index(kAccounts)),
            t + rng.uniform(), t + 1.0 + rng.uniform(2.0, 10.0));
      }
    }
    net.process_responses(t + 1.0, [&](osn::NodeId, osn::NodeId,
                                       std::uint8_t) {
      return rng.bernoulli(0.4);
    });
    if (t == 2.0) {
      net.ban(3, t);
      net.ban(7, t);
    }
  }
  net.process_responses(1e9, [&](osn::NodeId, osn::NodeId, std::uint8_t) {
    return rng.bernoulli(0.4);
  });
  return net.log().events();
}

const std::vector<graph::NodeId> kSeeds = {1, 2, 5, 20, 21};

/// The recovery suite's overloaded single-shard template, with the
/// defense tier switchable on top.
ServiceOptions make_options(const std::string& dir, bool defense,
                            io::Vfs* vfs = &crashtest::sweep_vfs()) {
  ServiceOptions o;
  o.dir = dir;
  o.wal_fsync = WalFsync::kEveryAppend;  // per-record crash points
  o.wal_segment_records = 48;
  o.checkpoint_every = 256;
  o.checkpoint_retain = 2;
  o.vfs = vfs;
  o.detector.overload.queue_capacity = 260;
  o.detector.overload.shed_watermark = 120;
  o.detector.overload.sweep_only_watermark = 200;
  o.detector.overload.resume_watermark = 60;
  o.detector.ingest.watermark_hours = 500.0;
  o.detector.rule.invite_rate_min = 4.0;
  o.detector.rule.min_requests = 5;
  if (defense) {
    o.detector.defense.enabled = true;
    o.detector.defense.seeds = kSeeds;
  }
  return o;
}

/// Index-aligned driver (see recovery_test.cpp for the pump-schedule
/// argument), extended with a flag-sweep cadence that exercises the
/// scorer's refresh path mid-stream. The sweep fires BEFORE offer(i):
/// a checkpoint triggered inside offer(i) then sits between sweep i
/// and sweep i+cadence, so re-running sweeps from the checkpoint
/// position replays exactly the post-checkpoint ones and the sweeps
/// counter stays replay-exact.
void drive(ServiceSupervisor& s, const std::vector<osn::Event>& log,
           std::uint64_t offer_from, std::uint64_t pump_from = 0) {
  for (std::uint64_t i = std::min(offer_from, pump_from); i < log.size();
       ++i) {
    if (i >= pump_from && i % 127 == 0) {
      s.sweep_flags(20.0 + 0.01 * static_cast<double>(i));
    }
    if (i >= offer_from) {
      s.offer(log[i], i);
      s.commit();
    }
    if (i >= pump_from && i % 7 == 6) s.pump(3);
  }
  s.flush();
  s.sweep_flags(2e9);
}

struct RunResult {
  std::string stats;
  core::FlagBatch flags;
  std::uint64_t ops = 0;  // storage ops of the uninterrupted run
};

RunResult run_baseline(const std::vector<osn::Event>& log,
                       const std::string& dir, bool defense) {
  RunResult result;
  io::FaultyVfs vfs(&crashtest::sweep_vfs());  // counts, injects nothing
  ServiceSupervisor s(make_options(dir, defense, &vfs));
  const RecoveryReport report = s.start();
  EXPECT_TRUE(report.cold_start);
  drive(s, log, 0);
  EXPECT_TRUE(s.accounting_ok());
  result.ops = vfs.ops();
  result.stats = s.stats_json();
  result.flags = s.take_flagged();
  return result;
}

/// Flag equality including the defense annotation columns.
void expect_flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].account, b[i].account) << i;
    ASSERT_DOUBLE_EQ(a[i].flagged_at, b[i].flagged_at) << i;
    ASSERT_EQ(a[i].features.as_vector(), b[i].features.as_vector()) << i;
    ASSERT_EQ(a[i].defense_scored, b[i].defense_scored) << i;
    ASSERT_EQ(a[i].defense_rank, b[i].defense_rank) << i;
    ASSERT_EQ(a[i].defense_clustering, b[i].defense_clustering) << i;
  }
}

/// The process crashes at storage op k; a fresh supervisor recovers
/// and finishes the stream.
RunResult crash_recover_run(const std::vector<osn::Event>& log,
                            const std::string& dir, std::uint64_t k) {
  io::FaultyVfs vfs(&crashtest::sweep_vfs());
  crashtest::arm_crash(vfs, k);
  bool crashed = false;
  {
    ServiceSupervisor victim(make_options(dir, /*defense=*/true, &vfs));
    try {
      victim.start();
      drive(victim, log, 0);
    } catch (const io::VfsError& e) {
      EXPECT_EQ(e.kind(), io::VfsFaultKind::kProcessCrash) << e.what();
      crashed = true;
    }
  }  // process death: the dead vfs drops what the victim still buffered
  EXPECT_TRUE(crashed) << "op " << k << " never reached";

  ServiceSupervisor recovered(make_options(dir, /*defense=*/true));
  const RecoveryReport report = recovered.start();
  EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
  drive(recovered, log, report.next_index, report.checkpoint_position);
  EXPECT_TRUE(recovered.accounting_ok()) << "op " << k;
  RunResult result;
  result.stats = recovered.stats_json();
  result.flags = recovered.take_flagged();
  return result;
}

TEST_F(DefenseService, StatsAndFlagsAreGatedByTheDefenseKnob) {
  const std::vector<osn::Event> log = build_log(7);

  const RunResult off = run_baseline(log, fresh_dir("gate_off"), false);
  EXPECT_EQ(off.stats.find("\"defense\""), std::string::npos)
      << "defense off must not change the stats contract";
  ASSERT_FALSE(off.flags.records.empty());
  for (const core::FlagRecord& r : off.flags) {
    EXPECT_FALSE(r.defense_scored);
    EXPECT_EQ(r.defense_rank, 0.0);
    EXPECT_EQ(r.defense_clustering, 0.0);
  }

  // The on-side runs shed-free so the scorer sees the full stream (a
  // shed edge never reaches the scorer — the documented overload
  // caveat), and inline so the scorer stays queryable.
  ServiceOptions opts = make_options(fresh_dir("gate_on"), true);
  opts.detector.overload.queue_capacity = 100000;
  opts.detector.overload.sweep_only_watermark = 80000;
  opts.detector.overload.shed_watermark = 50000;
  opts.detector.overload.resume_watermark = 10000;
  ServiceSupervisor s(opts);
  s.start();
  drive(s, log, 0);
  const std::string on_stats = s.stats_json();
  const core::FlagBatch on_flags = s.take_flagged();

  EXPECT_NE(on_stats.find(",\"defense\":{"), std::string::npos);
  const DefenseScorer* scorer = s.defense();
  ASSERT_NE(scorer, nullptr);
  EXPECT_GT(scorer->edges_observed(), 100u) << "shed-free: every edge lands";
  EXPECT_GT(scorer->refreshes(), 2u);
  double rank_mass = 0.0;
  for (const double x : scorer->rank_scores()) rank_mass += x;
  EXPECT_GT(rank_mass, 0.0) << "seeded trust must actually propagate";

  // The annotations are exactly the scorer's published columns, and
  // the second signal never changes WHO is flagged, or when.
  ASSERT_FALSE(on_flags.records.empty());
  ASSERT_EQ(on_flags.size(), off.flags.size());
  for (std::size_t i = 0; i < on_flags.size(); ++i) {
    const core::FlagRecord& r = on_flags[i];
    EXPECT_TRUE(r.defense_scored);
    EXPECT_EQ(r.defense_rank, scorer->rank_score(r.account)) << i;
    EXPECT_EQ(r.defense_clustering, scorer->clustering_score(r.account))
        << i;
    EXPECT_EQ(r.account, off.flags[i].account) << i;
    EXPECT_DOUBLE_EQ(r.flagged_at, off.flags[i].flagged_at) << i;
  }
}

TEST_F(DefenseService, ByteIdenticalAtEveryStorageOpWithDefenseOn) {
  const std::vector<osn::Event> log = build_log(7);
  ASSERT_GT(log.size(), 500u);
  const RunResult base = run_baseline(log, fresh_dir("sweep_base"), true);
  ASSERT_GT(base.ops, 2 * log.size());  // a write and an fsync per record
  ASSERT_FALSE(base.flags.records.empty());
  ASSERT_NE(base.stats.find("\"defense\""), std::string::npos);

  const std::string dir = fresh_dir("sweep");
  for (std::uint64_t k = 0; k < base.ops; ++k) {
    fs::remove_all(dir);
    const RunResult run = crash_recover_run(log, dir, k);
    ASSERT_EQ(run.stats, base.stats) << "crash at op " << k;
    expect_flags_equal(run.flags, base.flags);
    if (::testing::Test::HasFailure()) FAIL() << "crash at op " << k;
  }
}

TEST_F(DefenseService, ByteIdenticalAcrossThreadCountsWithDefenseOn) {
  const std::vector<osn::Event> log = build_log(11);
  const RunResult base = run_baseline(log, fresh_dir("thr_base"), true);
  const std::uint64_t mid = base.ops / 2;

  core::set_thread_count(1);
  const RunResult one = crash_recover_run(log, fresh_dir("thr1"), mid);
  core::set_thread_count(8);
  const RunResult eight = crash_recover_run(log, fresh_dir("thr8"), mid);
  core::set_thread_count(0);  // back to automatic

  EXPECT_EQ(one.stats, base.stats);
  EXPECT_EQ(eight.stats, base.stats);
  expect_flags_equal(one.flags, base.flags);
  expect_flags_equal(eight.flags, base.flags);
}

// A defense-off supervisor must load (and simply ignore) a checkpoint
// that carries a scorer section.
TEST_F(DefenseService, DefenseOffReaderIgnoresScorerSection) {
  const std::vector<osn::Event> log = build_log(13);
  const std::string dir = fresh_dir("off_reader");
  {
    ServiceSupervisor s(make_options(dir, /*defense=*/true));
    s.start();
    drive(s, log, 0);
  }
  const RunResult off_base = run_baseline(log, fresh_dir("off_base"), false);

  ServiceSupervisor s(make_options(dir, /*defense=*/false));
  const RecoveryReport report = s.start();
  EXPECT_FALSE(report.cold_start);
  EXPECT_EQ(report.generations_discarded, 0u);
  drive(s, log, report.next_index, report.checkpoint_position);
  // Workload accounting is byte-identical to a from-birth defense-off
  // run — the tier never leaked into the base contract.
  EXPECT_EQ(s.stats_json(), off_base.stats);
}

// The reverse direction: a defense-ON supervisor refuses checkpoints
// without a scorer section — typed SnapshotError inside the generation
// fallback, so EVERY retained generation is discarded and only a cold
// start from the WAL is left. While the WAL still begins at record 0,
// that start rebuilds the scorer and lands on the from-birth bytes.
// Once the WAL has been pruned behind the checkpoints, start() refuses
// typed instead: a scorer (and counters) rebuilt from a WAL suffix
// would resume on part of the history — the documented "enable the
// tier from the service's birth" caveat (service/defense_scorer.h).
TEST_F(DefenseService, DefenseOnRefusesScorerlessCheckpointAndRebuilds) {
  const std::vector<osn::Event> log = build_log(13);
  const auto run_defense_off = [&log](const ServiceOptions& o) {
    ServiceSupervisor s(o);
    s.start();
    drive(s, log, 0);
  };

  // The whole WAL is one segment, which pruning never removes.
  const std::string whole = fresh_dir("on_reader_whole");
  ServiceOptions off = make_options(whole, /*defense=*/false);
  off.wal_segment_records = log.size() + 1;
  run_defense_off(off);
  ServiceSupervisor rebuilt(make_options(whole, /*defense=*/true));
  const RecoveryReport report = rebuilt.start();
  EXPECT_TRUE(report.cold_start)
      << "every generation lacks the scorer section";
  EXPECT_EQ(report.generations_discarded, 2u);  // both retained ones
  EXPECT_EQ(report.records_replayed, log.size());
  EXPECT_TRUE(rebuilt.accounting_ok());
  drive(rebuilt, log, report.next_index, report.checkpoint_position);
  const RunResult birth =
      run_baseline(log, fresh_dir("on_reader_birth"), /*defense=*/true);
  EXPECT_EQ(rebuilt.stats_json(), birth.stats);
  expect_flags_equal(rebuilt.take_flagged(), birth.flags);

  // Pruned WAL: the cold start is refused. The 500 h watermark keeps
  // every record in flight until the final flush, so a second flushed
  // generation is what lets the WAL be pruned.
  const std::string pruned = fresh_dir("on_reader");
  {
    ServiceSupervisor s(make_options(pruned, /*defense=*/false));
    s.start();
    drive(s, log, 0);
    s.offer(log.back(), log.size());
    s.commit();
    s.flush();
  }
  ServiceSupervisor refused(make_options(pruned, /*defense=*/true));
  try {
    refused.start();
    ADD_FAILURE() << "started over a WAL pruned behind its checkpoints";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), io::SnapshotErrorCode::kTruncated) << e.what();
  }
}

// ---- Sharded: N-vs-1 identity and the metric family -----------------

/// Shed-free shard template (see shard_test.cpp) with the tier on.
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
  o.shard.detector.defense.enabled = true;
  o.shard.detector.defense.seeds = kSeeds;
  return o;
}

WorkloadOptions defense_workload(std::uint64_t seed) {
  WorkloadOptions w;
  w.accounts = 64;
  w.events = 600;
  w.hours = 6.0;
  w.seed = seed;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  w.accept_fraction = 0.25;  // plenty of edges for the scorer
  return w;
}

core::FlagBatch run_sharded(const std::vector<osn::Event>& log,
                            const std::string& dir, std::uint32_t shards) {
  ShardRouter router(make_router_options(dir, shards));
  router.start();
  for (std::uint64_t i = 0; i < log.size(); ++i) {
    router.offer(log[i], i);
    if (i % 16 == 15) router.pump();
  }
  router.flush(/*checkpoint=*/true);
  router.sweep_flags(7.0);
  EXPECT_TRUE(router.accounting_ok());
  return router.take_flagged();
}

TEST_F(DefenseService, MergedAnnotatedFlagsMatchSingleShardAcrossThreads) {
  const std::vector<osn::Event> log = synthetic_workload(defense_workload(21));

  core::set_thread_count(1);
  const core::FlagBatch one_1 = run_sharded(log, fresh_dir("n1_t1"), 1);
  const core::FlagBatch four_1 = run_sharded(log, fresh_dir("n4_t1"), 4);
  core::set_thread_count(8);
  const core::FlagBatch one_8 = run_sharded(log, fresh_dir("n1_t8"), 1);
  const core::FlagBatch four_8 = run_sharded(log, fresh_dir("n4_t8"), 4);
  core::set_thread_count(0);

  ASSERT_FALSE(one_1.records.empty());
  bool any_scored = false;
  for (const core::FlagRecord& r : one_1) {
    any_scored = any_scored || (r.defense_scored && r.defense_rank != 0.0);
  }
  EXPECT_TRUE(any_scored);
  // Edge events broadcast to every shard in stream order, so each
  // shard's scorer grows the identical graph and the annotations are
  // partition- and thread-count-invariant.
  expect_flags_equal(four_1, one_1);
  expect_flags_equal(one_8, one_1);
  expect_flags_equal(four_8, one_1);
}

// The sweep snapshots the scorer's graph and the first take_flagged()
// after it pulls the scores. A caller that takes flags only every third
// sweep, 25 pumped events after it, must read the same bits as one that
// takes them at the sweep: the reference scores over exactly the events
// pumped before the last sweep. Sweeps whose scores nobody read run no
// pull.
TEST_F(DefenseService, LateTakeFlaggedScoresTheLastSweepsGraph) {
  WorkloadOptions w = defense_workload(41);
  w.accounts = 200;
  w.events = 3000;
  w.burst_senders = 6;
  const std::vector<osn::Event> log = synthetic_workload(w);

  for (int threads : {1, 8}) {
    core::set_thread_count(threads);
    // Shed-free, no checkpoints (a checkpoint reads the scores too), and
    // a short watermark so flags appear while the stream runs.
    ServiceOptions opts =
        make_router_options(fresh_dir("late_reader"), 1).shard;
    opts.checkpoint_every = 0;
    opts.detector.ingest.watermark_hours = 0.25;
    ServiceSupervisor s(opts);
    s.start();
    std::uint64_t sweeps = 0, swept_prefix = 0, scored_batches = 0;
    for (std::uint64_t i = 0; i < log.size(); ++i) {
      s.offer(log[i], i);
      s.commit();
      s.pump();
      if (i % 50 == 49) {
        s.sweep_flags(log[i].time);
        ++sweeps;
        swept_prefix = i + 1;
      }
      if (sweeps % 3 != 0 || i % 50 != 24 || sweeps == 0) continue;
      const core::FlagBatch batch = s.take_flagged();
      if (batch.records.empty()) continue;
      ++scored_batches;
      DefenseScorer at_sweep(opts.detector);
      for (std::uint64_t k = 0; k < swept_prefix; ++k) {
        at_sweep.observe(log[k]);
      }
      const std::vector<double> want =
          detect::sybilrank_scores(graph::CsrGraph::from(at_sweep.graph()),
                                   kSeeds);
      for (const core::FlagRecord& r : batch) {
        ASSERT_TRUE(r.defense_scored);
        ASSERT_EQ(r.defense_rank, r.account < want.size() ? want[r.account]
                                                           : 0.0)
            << "threads " << threads << " sweep " << sweeps << " account "
            << r.account;
      }
    }
    EXPECT_GE(scored_batches, 3u) << "threads " << threads;
    const DefenseScorer* scorer = s.defense();
    ASSERT_NE(scorer, nullptr);
    EXPECT_EQ(scorer->refreshes(), sweeps);
    EXPECT_LE(scorer->rank().full_recomputes(), scored_batches)
        << "only the reads ran pulls";
  }
  core::set_thread_count(0);
}

#if SYBIL_METRICS_COMPILED
TEST_F(DefenseService, DefenseMetricsAggregateExactly) {
  auto& registry = core::metrics::MetricsRegistry::instance();
  registry.reset();

  const std::vector<osn::Event> log = synthetic_workload(defense_workload(33));
  ShardRouter router(make_router_options(fresh_dir("metrics"), 2));
  router.start();
  for (std::uint64_t i = 0; i < log.size(); ++i) {
    router.offer(log[i], i);
    if (i % 16 == 15) router.pump();
  }
  router.flush(/*checkpoint=*/true);
  router.sweep_flags(7.0);
  const core::FlagBatch flags = router.take_flagged();
  // The post-sweep refresh deltas have not been published yet; force
  // the publish point the ops loop would hit.
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    router.shard(i).publish_metrics();
  }

  const char* kRows[] = {"defense.edges_observed",
                         "defense.propagation_rounds",
                         "defense.full_recomputes",
                         "defense.scores_published"};
  for (const char* row : kRows) {
    std::uint64_t per_shard_sum = 0;
    for (std::uint32_t i = 0; i < router.shards(); ++i) {
      per_shard_sum +=
          registry
              .counter("service.shard." + std::to_string(i) + "." + row)
              .value();
    }
    EXPECT_EQ(per_shard_sum,
              registry.counter(std::string("service.") + row).value())
        << row;
  }

  // Registry rows match the scorers' ground truth.
  std::uint64_t edges = 0, rounds = 0, full = 0;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    const DefenseScorer* scorer = router.shard(i).defense();
    ASSERT_NE(scorer, nullptr) << i;
    edges += scorer->edges_observed();
    rounds += scorer->rank().rounds_total();
    full += scorer->rank().full_recomputes();
  }
  ASSERT_GT(edges, 0u) << "the workload must actually grow the graph";
  EXPECT_EQ(registry.counter("service.defense.edges_observed").value(),
            edges);
  EXPECT_EQ(registry.counter("service.defense.propagation_rounds").value(),
            rounds);
  EXPECT_EQ(registry.counter("service.defense.full_recomputes").value(),
            full);
  // Each shard counts its own pre-merge batch, so the aggregate is at
  // least the owner-merged flag count.
  ASSERT_FALSE(flags.records.empty());
  EXPECT_GE(registry.counter("service.defense.scores_published").value(),
            flags.size());
  registry.reset();
}
#endif  // SYBIL_METRICS_COMPILED

}  // namespace
}  // namespace sybil::service
