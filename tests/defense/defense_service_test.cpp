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
//     checkpoint without one (typed fallback → WAL rebuild that lands
//     on the from-birth bytes);
//   * N-vs-1 shard identity with the tier on — edge events broadcast,
//     so every shard scores the same graph and merged annotated flags
//     match a single shard's, across thread counts;
//   * the defense metric family: per-shard rows sum exactly into the
//     aggregate twins and match the scorers' ground truth;
//   * the committed golden checkpoint binaries (tests/data/
//     service_ckpt_v3.sybs and service_ckpt_v4.sybs, docs/FORMATS.md
//     §5.4): v3 loads field-exact, and re-serializing the same state
//     reproduces the v4 bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/metrics/metrics.h"
#include "core/parallel.h"
#include "io/container.h"
#include "io/faulty_vfs.h"
#include "osn/network.h"
#include "service/checkpoint.h"
#include "service/defense_scorer.h"
#include "service/router.h"
#include "service/supervisor.h"
#include "service/workload.h"
#include "stats/rng.h"
#include "support/crash_vfs.h"

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
  const std::string dir = ::testing::TempDir() + "/sybil_def_" + name;
  fs::remove_all(dir);
  return dir;
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
    if (i >= offer_from) s.offer(log[i], i);
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
  for (const double x : scorer->rank().scores()) rank_mass += x;
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
// fallback, so EVERY retained generation is discarded and the service
// cold-starts from the surviving WAL. The WAL prefix covered by those
// checkpoints was legitimately pruned, so the rebuilt scorer sees only
// the suffix — exactly the documented "enable the tier from the
// service's birth" caveat (service/defense_scorer.h): the start is
// loud and consistent, never a silently empty graph resumed from a
// scorerless snapshot.
TEST_F(DefenseService, DefenseOnRefusesScorerlessCheckpointAndRebuilds) {
  const std::vector<osn::Event> log = build_log(13);
  const std::string dir = fresh_dir("on_reader");
  {
    ServiceSupervisor s(make_options(dir, /*defense=*/false));
    s.start();
    drive(s, log, 0);
  }
  ServiceSupervisor s(make_options(dir, /*defense=*/true));
  const RecoveryReport report = s.start();
  EXPECT_TRUE(report.cold_start)
      << "every generation lacks the scorer section";
  EXPECT_EQ(report.generations_discarded, 2u);  // both retained ones
  EXPECT_GT(report.records_replayed, 0u);
  EXPECT_TRUE(s.accounting_ok());
  // The service runs on consistently, scoring from the WAL suffix it
  // could still see.
  drive(s, log, report.next_index, report.checkpoint_position);
  EXPECT_TRUE(s.accounting_ok());
  ASSERT_NE(s.defense(), nullptr);
  EXPECT_GT(s.defense()->edges_observed(), 0u);
  EXPECT_NE(s.stats_json().find(",\"defense\":{"), std::string::npos);
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

  const char* kRows[] = {"defense.edges_observed", "defense.dirty_vertices",
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
  std::uint64_t edges = 0, dirty = 0, rounds = 0, full = 0;
  for (std::uint32_t i = 0; i < router.shards(); ++i) {
    const DefenseScorer* scorer = router.shard(i).defense();
    ASSERT_NE(scorer, nullptr) << i;
    edges += scorer->edges_observed();
    dirty += scorer->dirty_processed();
    rounds += scorer->rank().rounds_total();
    full += scorer->rank().full_recomputes();
  }
  ASSERT_GT(edges, 0u) << "the workload must actually grow the graph";
  EXPECT_EQ(registry.counter("service.defense.edges_observed").value(),
            edges);
  EXPECT_EQ(registry.counter("service.defense.dirty_vertices").value(),
            dirty);
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

// ---- Golden v3/v4 checkpoints (docs/FORMATS.md §5.4) ------------------

std::string golden(const char* name) {
  return std::string(SYBIL_TEST_DATA_DIR) + "/" + name;
}

/// The exact state behind tests/data/service_ckpt_v4.sybs and, but for
/// v3's opaque "R1" section 4, service_ckpt_v3.sybs — every field here
/// is documented in the worked examples of FORMATS.md §5.4.
/// Fully deterministic: fixed options, fixed events, no RNG, no clock.
ServiceCheckpointState golden_state() {
  ServiceCheckpointState s;
  s.wal_position = 7;
  s.tier = 1;  // kShedLowPriority
  s.shard_id = 2;
  s.shard_count = 4;
  s.next_seq = 7;
  s.counters.offered = 7;
  s.counters.admitted = 6;
  s.counters.pumped = 5;
  s.counters.shed_low_priority = 1;
  s.counters.sweeps = 2;
  s.counters.sweep_flagged = 1;
  WalRecord r;
  r.index = 6;
  r.seq = 6;
  r.event = {osn::EventType::kRequestSent, 3, 4, 1.5};
  r.flags = 0;
  s.queue.push_back(r);
  s.stream_state = {std::byte{0x53}, std::byte{0x31}};    // opaque "S1"

  core::DetectorOptions opts;
  opts.defense.enabled = true;
  opts.defense.seeds = {0, 1};
  DefenseScorer scorer(opts);
  scorer.observe({osn::EventType::kRequestAccepted, 1, 2, 1.0});
  scorer.observe({osn::EventType::kRequestAccepted, 2, 3, 2.0});
  scorer.observe({osn::EventType::kFriendshipSeeded, 0, 3, 3.0});
  scorer.observe({osn::EventType::kRequestAccepted, 1, 2, 4.0});  // dup
  scorer.observe({osn::EventType::kRequestAccepted, 3, 3, 5.0});  // loop
  scorer.refresh();
  scorer.observe({osn::EventType::kRequestAccepted, 0, 2, 6.0});
  s.defense_state = scorer.serialize();  // mid-interval: {0, 2} dirty
  return s;
}

TEST_F(DefenseService, GoldenCheckpointV3Loads) {
  const ServiceCheckpointState want = golden_state();
  const ServiceCheckpointState got =
      load_service_checkpoint(golden("service_ckpt_v3.sybs"));
  EXPECT_EQ(got.wal_position, want.wal_position);
  EXPECT_EQ(got.tier, want.tier);
  EXPECT_EQ(got.shard_id, want.shard_id);
  EXPECT_EQ(got.shard_count, want.shard_count);
  EXPECT_EQ(got.next_seq, want.next_seq);
  EXPECT_EQ(got.counters.offered, want.counters.offered);
  EXPECT_EQ(got.counters.admitted, want.counters.admitted);
  EXPECT_EQ(got.counters.pumped, want.counters.pumped);
  EXPECT_EQ(got.counters.shed_low_priority, want.counters.shed_low_priority);
  EXPECT_EQ(got.counters.sweeps, want.counters.sweeps);
  EXPECT_EQ(got.counters.sweep_flagged, want.counters.sweep_flagged);
  EXPECT_TRUE(got.counters == want.counters);
  ASSERT_EQ(got.queue.size(), 1u);
  EXPECT_EQ(got.queue[0].index, 6u);
  EXPECT_EQ(got.queue[0].seq, 6u);
  EXPECT_EQ(got.queue[0].event.actor, 3u);
  EXPECT_EQ(got.queue[0].event.subject, 4u);
  EXPECT_EQ(got.stream_state, want.stream_state);
  ASSERT_EQ(got.defense_state, want.defense_state);

  // The scorer blob restores into a working scorer: 4 distinct edges,
  // 2 deterministic skips, one refresh, nodes 0 and 2 still dirty.
  core::DetectorOptions opts;
  opts.defense.enabled = true;
  opts.defense.seeds = {0, 1};
  DefenseScorer scorer(opts);
  scorer.restore(got.defense_state);
  EXPECT_EQ(scorer.edges_observed(), 4u);
  EXPECT_EQ(scorer.ignored(), 2u);
  EXPECT_EQ(scorer.refreshes(), 1u);
  EXPECT_EQ(scorer.graph().edge_count(), 4u);
  const auto dirty = scorer.graph().dirty();
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], 0u);
  EXPECT_EQ(dirty[1], 2u);
}

TEST_F(DefenseService, GoldenCheckpointV4BytesAreFrozen) {
  const std::string fresh = ::testing::TempDir() + "/sybil_ckpt_v4_fresh.sybs";
  save_service_checkpoint(fresh, golden_state());
  std::ifstream fa(golden("service_ckpt_v4.sybs"), std::ios::binary);
  std::ifstream fb(fresh, std::ios::binary);
  ASSERT_TRUE(fa.good()) << "committed golden missing";
  ASSERT_TRUE(fb.good());
  const std::string ba((std::istreambuf_iterator<char>(fa)), {});
  const std::string bb((std::istreambuf_iterator<char>(fb)), {});
  EXPECT_EQ(ba, bb)
      << "service checkpoint format changed without a version bump "
         "(docs/FORMATS.md §5.4)";
  std::remove(fresh.c_str());
}

// ---- load_service_checkpoint rejects what it cannot mean --------------

/// The golden v3 checkpoint re-containered section by section, each
/// payload passed through `edit(id, payload)` (1 = meta, 2 = queue;
/// FORMATS.md §5.4). Every CRC stays valid, so only the checkpoint
/// decoder can notice.
template <typename Edit>
std::string golden_edited(const std::string& name, Edit edit) {
  const io::ContainerReader reader(golden("service_ckpt_v3.sybs"),
                                   io::PayloadKind::kServiceCheckpoint);
  io::ContainerWriter writer(io::PayloadKind::kServiceCheckpoint);
  for (std::uint32_t id = 1; id <= 5; ++id) {
    const auto bytes = reader.section(id);
    std::vector<std::byte> payload(bytes.begin(), bytes.end());
    edit(id, payload);
    writer.add_section(id, std::move(payload));
  }
  const std::string path =
      ::testing::TempDir() + "/sybil_ckpt_edited_" + name + ".sybs";
  writer.commit(path);
  return path;
}

/// The golden with one zero byte appended to section `grown` (0 grows
/// nothing).
std::string golden_grown(std::uint32_t grown, const std::string& name) {
  return golden_edited(name, [&](std::uint32_t id, auto& payload) {
    if (id == grown) payload.push_back(std::byte{0});
  });
}

void expect_load_refused(const std::string& path, io::SnapshotErrorCode code) {
  try {
    load_service_checkpoint(path);
    ADD_FAILURE() << path << " loaded";
  } catch (const io::SnapshotError& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
  std::remove(path.c_str());
}

TEST_F(DefenseService, CheckpointLoadRejectsTrailingMetaBytes) {
  const std::string control = golden_grown(0, "control");
  EXPECT_NO_THROW(load_service_checkpoint(control));
  std::remove(control.c_str());
  expect_load_refused(golden_grown(1, "meta"),
                      io::SnapshotErrorCode::kMalformedSection);
}

TEST_F(DefenseService, CheckpointLoadRejectsTrailingQueueBytes) {
  expect_load_refused(golden_grown(2, "queue"),
                      io::SnapshotErrorCode::kMalformedSection);
}

// A count no section could hold fails before it sizes the queue: with
// 2^32 - 1 records of 40 bytes claimed by an 8-byte section, the loader
// must throw its typed error rather than attempt the allocation.
TEST_F(DefenseService, CheckpointLoadRejectsQueueCountPastSectionEnd) {
  expect_load_refused(
      golden_edited("queue_count",
                    [](std::uint32_t id, auto& payload) {
                      if (id != 2) return;
                      io::ByteWriter w;
                      w.write(std::uint64_t{0xFFFFFFFF});
                      payload = std::move(w).take();
                    }),
      io::SnapshotErrorCode::kMalformedSection);
}

TEST_F(DefenseService, CheckpointLoadRejectsTierAboveSweepOnly) {
  const std::string path = ::testing::TempDir() + "/sybil_ckpt_tier.sybs";
  constexpr auto kTop =
      static_cast<std::uint32_t>(core::ServiceTier::kSweepOnly);
  ServiceCheckpointState state = golden_state();
  state.tier = kTop;
  save_service_checkpoint(path, std::move(state));
  EXPECT_EQ(load_service_checkpoint(path).tier, kTop);  // still loads
  state = golden_state();
  state.tier = kTop + 1;
  save_service_checkpoint(path, std::move(state));
  expect_load_refused(path, io::SnapshotErrorCode::kFormatViolation);
}

}  // namespace
}  // namespace sybil::service
