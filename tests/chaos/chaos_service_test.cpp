// Chaos-orchestration suite (docs/ROBUSTNESS.md §Scenario harness):
//
//   * scenario manifests: canonical-text round-trip, the committed
//     golden manifest, and loud rejection of everything the identity
//     contract cannot carry (reorder/banned-party windows, overlapping
//     kills, phase gaps);
//   * traffic shapes: defaults stay byte-identical to the legacy flat
//     stream, diurnal/flash-crowd curves move *when* events happen but
//     never what, registration storms add creations only inside their
//     window;
//   * fault schedules: identity outside windows, global seq
//     coordinates, duplicates sharing their original's seq;
//   * down-shard routing: mark_down counts skipped copies outside the
//     routed identity, accounting holds with a hole in the fleet, and
//     restart_shard heals the same shard twice under live traffic (the
//     min-frontier regression);
//   * the orchestrator: the golden manifest — duplicate window + crash
//     during overload + recovery under fire + an ENOSPC [disk] window
//     (storage-degraded tier) + a power cut — produces flags and
//     per-shard stats byte-identical to its undisturbed control, at
//     SYBIL_THREADS 1 and 8;
//   * ScenarioKillSweep (not Chaos*, so the tsan name filter skips it):
//     each shard killed (a process crash) at every storage op of a
//     live-traffic scenario, identity pinned every time.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chaos/manifest.h"
#include "chaos/orchestrator.h"
#include "core/parallel.h"
#include "faults/fault_schedule.h"
#include "service/router.h"
#include "service/workload.h"

namespace sybil::chaos {
namespace {

namespace fs = std::filesystem;

class ChaosBase : public ::testing::Test {
 protected:
  // Scenario runs churn throwaway checkpoints; skip fsync (same knob
  // and rationale as the recovery suites).
  static void SetUpTestSuite() { ::setenv("SYBIL_IO_FSYNC", "0", 1); }
  static void TearDownTestSuite() { ::unsetenv("SYBIL_IO_FSYNC"); }
};

using ChaosManifest = ChaosBase;
using ChaosWorkload = ChaosBase;
using ChaosFaultSchedule = ChaosBase;
using ChaosRouterDown = ChaosBase;
using ChaosScenario = ChaosBase;
// Heavy boundary sweeps: own fixture name so the tsan preset's Chaos*
// name filter selects only the light tests above.
using ScenarioKillSweep = ChaosBase;

std::string fresh_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/sybil_chaos_" + name;
  fs::remove_all(dir);
  return dir;
}

std::string golden_path() {
  return std::string(SYBIL_TEST_DATA_DIR) + "/scenario_golden.scn";
}

/// Small all-features manifest used by the round-trip and sweep tests:
/// shaped traffic, two sweeping phases, a duplicate-only window.
ScenarioManifest small_manifest() {
  ScenarioManifest m;
  m.name = "small";
  m.workload.accounts = 64;
  m.workload.events = 400;
  m.workload.hours = 6.0;
  m.workload.seed = 3;
  m.workload.burst_senders = 2;
  m.workload.burst_fraction = 0.3;
  m.workload.malformed_fraction = 0.02;
  m.workload.diurnal_amplitude = 0.4;
  m.workload.diurnal_period_hours = 3.0;
  m.workload.flash_crowds.push_back({2.0, 1.0, 1.5});
  m.shards = 3;
  m.wal_segment_records = 32;
  PhaseSpec warm;
  warm.name = "warm";
  warm.until_event = 200;
  warm.pump_interval = 32;
  warm.sweep = true;
  PhaseSpec drain;
  drain.name = "drain";
  drain.until_event = 400;
  drain.pump_interval = 32;
  drain.sweep = true;
  m.phases = {warm, drain};
  faults::FaultWindow w;
  w.from_event = 100;
  w.to_event = 200;
  w.rates.seed = 5;
  w.rates.duplicate = 0.3;
  w.rates.max_skew_hours = 0.5;
  m.fault_windows = {w};
  return m;
}

// ---------------------------------------------------------------------------
// Manifests

TEST_F(ChaosManifest, SerializeParseRoundTrip) {
  ScenarioManifest m = small_manifest();
  KillSpec k1;
  k1.shard = 1;
  k1.at_event = 150;
  k1.down_for = 40;
  KillSpec k2;
  k2.shard = 2;
  k2.at_boundary = 7;
  k2.use_boundary = true;
  k2.down_for = 25;
  m.kills = {k1, k2};
  DiskFaultSpec d;
  d.shard = 0;
  d.kind = DiskFaultSpec::Kind::kIoError;
  d.from_event = 210;
  d.to_event = 260;
  d.seed = 9;
  m.disk_faults = {d};
  m.validate();

  const std::string text = m.serialize();
  const ScenarioManifest back = parse_manifest(text);
  EXPECT_EQ(back.serialize(), text);
  EXPECT_EQ(back.name, "small");
  EXPECT_EQ(back.workload.events, 400u);
  EXPECT_DOUBLE_EQ(back.workload.diurnal_amplitude, 0.4);
  ASSERT_EQ(back.workload.flash_crowds.size(), 1u);
  EXPECT_DOUBLE_EQ(back.workload.flash_crowds[0].intensity, 1.5);
  EXPECT_EQ(back.shards, 3u);
  ASSERT_EQ(back.phases.size(), 2u);
  EXPECT_EQ(back.phases[0].name, "warm");
  EXPECT_TRUE(back.phases[1].sweep);
  ASSERT_EQ(back.fault_windows.size(), 1u);
  EXPECT_DOUBLE_EQ(back.fault_windows[0].rates.duplicate, 0.3);
  ASSERT_EQ(back.kills.size(), 2u);
  EXPECT_FALSE(back.kills[0].use_boundary);
  EXPECT_EQ(back.kills[0].at_event, 150u);
  EXPECT_TRUE(back.kills[1].use_boundary);
  EXPECT_EQ(back.kills[1].at_boundary, 7u);
  ASSERT_EQ(back.disk_faults.size(), 1u);
  EXPECT_EQ(back.disk_faults[0].kind, DiskFaultSpec::Kind::kIoError);
  EXPECT_EQ(back.disk_faults[0].from_event, 210u);
  EXPECT_EQ(back.disk_faults[0].to_event, 260u);
  EXPECT_EQ(back.disk_faults[0].seed, 9u);
  EXPECT_TRUE(back.identity_expected());
}

TEST_F(ChaosManifest, GoldenFileParses) {
  const ScenarioManifest m = load_manifest(golden_path());
  EXPECT_EQ(m.name, "golden-recovery-under-fire");
  EXPECT_EQ(m.shards, 3u);
  EXPECT_EQ(m.workload.events, 3000u);
  EXPECT_EQ(m.phases.size(), 3u);
  EXPECT_EQ(m.phases[1].name, "overload");
  EXPECT_EQ(m.fault_windows.size(), 1u);
  EXPECT_EQ(m.kills.size(), 2u);
  ASSERT_EQ(m.disk_faults.size(), 2u);
  EXPECT_EQ(m.disk_faults[0].kind, DiskFaultSpec::Kind::kNoSpace);
  EXPECT_EQ(m.disk_faults[1].kind, DiskFaultSpec::Kind::kPowerLoss);
  EXPECT_EQ(m.disk_faults[1].seed, 7u);
  EXPECT_TRUE(m.identity_expected());
  // The undisturbed control keeps the shape but drops the chaos.
  const ScenarioManifest u = m.undisturbed();
  EXPECT_TRUE(u.fault_windows.empty());
  EXPECT_TRUE(u.kills.empty());
  EXPECT_TRUE(u.disk_faults.empty());
  EXPECT_EQ(u.phases.size(), 3u);
}

TEST_F(ChaosManifest, RejectsIdentityBreakingRates) {
  ScenarioManifest m = small_manifest();
  m.fault_windows[0].rates.reorder = 0.1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m = small_manifest();
  m.fault_windows[0].rates.banned_party = 0.1;
  EXPECT_THROW(m.validate(), std::invalid_argument);
  // Drop does not break routing, only byte-identity expectations.
  m = small_manifest();
  m.fault_windows[0].rates.drop = 0.1;
  EXPECT_NO_THROW(m.validate());
  EXPECT_FALSE(m.identity_expected());
}

TEST_F(ChaosManifest, RejectsBadPhasesAndKills) {
  ScenarioManifest m = small_manifest();
  m.phases[1].until_event = 399;  // gap: last phase must end at events
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  m.phases[1].until_event = 200;  // not strictly increasing
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  KillSpec k;
  k.shard = 3;  // out of range for 3 shards
  k.at_event = 10;
  m.kills = {k};
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  KillSpec a;
  a.at_event = 100;
  a.down_for = 100;
  KillSpec b;
  b.at_event = 150;  // arms while a's victim is still down
  b.down_for = 10;
  m.kills = {a, b};
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  KillSpec late;
  late.at_event = 390;
  late.down_for = 20;  // cannot recover within the stream
  m.kills = {late};
  EXPECT_THROW(m.validate(), std::invalid_argument);
}

TEST_F(ChaosManifest, RejectsBadDiskWindows) {
  ScenarioManifest m = small_manifest();
  DiskFaultSpec d;
  d.shard = 3;  // out of range for 3 shards
  d.from_event = 10;
  d.to_event = 20;
  m.disk_faults = {d};
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  d = {};
  d.from_event = 20;
  d.to_event = 20;  // empty window
  m.disk_faults = {d};
  EXPECT_THROW(m.validate(), std::invalid_argument);

  m = small_manifest();
  d = {};
  d.from_event = 300;
  d.to_event = 500;  // beyond the stream
  m.disk_faults = {d};
  EXPECT_THROW(m.validate(), std::invalid_argument);

  // One disturbance at a time: a disk window may not overlap a kill
  // downtime (and vice versa), but adjacency is fine.
  m = small_manifest();
  KillSpec k;
  k.shard = 1;
  k.at_event = 100;
  k.down_for = 50;
  m.kills = {k};
  d = {};
  d.from_event = 120;
  d.to_event = 180;  // inside the kill's [100, 150) downtime
  m.disk_faults = {d};
  EXPECT_THROW(m.validate(), std::invalid_argument);
  m.disk_faults[0].from_event = 150;  // adjacent
  m.disk_faults[0].to_event = 180;
  EXPECT_NO_THROW(m.validate());
  // Disk windows never break the identity contract.
  EXPECT_TRUE(m.identity_expected());
}

TEST_F(ChaosManifest, ParseFailsWithLineNumbers) {
  EXPECT_THROW(parse_manifest("not a manifest\n"), std::invalid_argument);
  try {
    parse_manifest("sybil-scenario v1\n[workload]\nbogus_key = 1\n");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Traffic shapes

TEST_F(ChaosWorkload, ShapeDefaultsAreByteIdentical) {
  service::WorkloadOptions base;
  base.accounts = 64;
  base.events = 500;
  base.hours = 12.0;
  base.seed = 9;
  const std::vector<osn::Event> legacy = service::synthetic_workload(base);

  // Zero-amplitude diurnal and a zero-intensity storm are arithmetic
  // no-ops: the stream must stay byte-identical, not just equivalent.
  service::WorkloadOptions shaped = base;
  shaped.diurnal_amplitude = 0.0;
  shaped.registration_storms.push_back({2.0, 3.0, 0.0});
  const std::vector<osn::Event> with = service::synthetic_workload(shaped);
  ASSERT_EQ(with.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(with[i].type, legacy[i].type) << i;
    EXPECT_EQ(with[i].actor, legacy[i].actor) << i;
    EXPECT_EQ(with[i].subject, legacy[i].subject) << i;
    EXPECT_EQ(with[i].time, legacy[i].time) << i;  // bitwise
  }
  // And the legacy timestamp formula is exactly hours*i/events.
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].time, base.hours * static_cast<double>(i) /
                                  static_cast<double>(base.events))
        << i;
  }
}

TEST_F(ChaosWorkload, DiurnalCurveMovesWhenNotWhat) {
  service::WorkloadOptions flat;
  flat.accounts = 64;
  flat.events = 2000;
  flat.hours = 24.0;
  flat.seed = 4;
  service::WorkloadOptions wave = flat;
  wave.diurnal_amplitude = 0.8;
  wave.diurnal_period_hours = 24.0;

  const auto a = service::synthetic_workload(flat);
  const auto b = service::synthetic_workload(wave);
  ASSERT_EQ(a.size(), b.size());
  std::size_t first_half = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    // Content is positional: only timestamps may differ.
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].actor, b[i].actor) << i;
    EXPECT_EQ(a[i].subject, b[i].subject) << i;
    if (i > 0) EXPECT_GE(b[i].time, b[i - 1].time) << i;
    if (b[i].time < 12.0) ++first_half;
  }
  // rate = 1 + A*sin(2*pi*t/24) is above baseline for t in (0, 12):
  // the first half-day must hold well over half the events.
  EXPECT_GT(first_half, b.size() / 2 + b.size() / 10);
}

TEST_F(ChaosWorkload, FlashCrowdCompressesTimestamps) {
  service::WorkloadOptions o;
  o.accounts = 64;
  o.events = 3000;
  o.hours = 30.0;
  o.seed = 5;
  o.flash_crowds.push_back({10.0, 2.0, 2.0});  // 3x rate inside [10, 12)
  const auto events = service::synthetic_workload(o);
  std::size_t inside = 0, control = 0;
  for (const osn::Event& e : events) {
    if (e.time >= 10.0 && e.time < 12.0) ++inside;
    if (e.time >= 20.0 && e.time < 22.0) ++control;
  }
  EXPECT_GT(inside, 2 * control);
}

TEST_F(ChaosWorkload, RegistrationStormAddsCreationsInWindowOnly) {
  service::WorkloadOptions calm;
  calm.accounts = 64;
  calm.events = 4000;
  calm.hours = 40.0;
  calm.seed = 6;
  service::WorkloadOptions storm = calm;
  storm.registration_storms.push_back({10.0, 5.0, 0.2});

  const auto a = service::synthetic_workload(calm);
  const auto b = service::synthetic_workload(storm);
  ASSERT_EQ(a.size(), b.size());
  std::size_t calm_created = 0, storm_created = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Storms never move the clock.
    EXPECT_EQ(a[i].time, b[i].time) << i;
    const bool in_window = a[i].time >= 10.0 && a[i].time < 15.0;
    if (in_window) {
      calm_created += a[i].type == osn::EventType::kAccountCreated;
      storm_created += b[i].type == osn::EventType::kAccountCreated;
    } else if (a[i].time < 10.0) {
      // Before the first storm window the stream is byte-identical
      // (after it, branch-dependent RNG consumption shifts content —
      // see WorkloadOptions::registration_storms).
      EXPECT_EQ(a[i].type, b[i].type) << i;
      EXPECT_EQ(a[i].actor, b[i].actor) << i;
      EXPECT_EQ(a[i].subject, b[i].subject) << i;
    }
  }
  EXPECT_GT(storm_created, calm_created * 3);
}

TEST_F(ChaosWorkload, ValidateCoversShapeFields) {
  service::WorkloadOptions o;
  o.diurnal_amplitude = 1.0;  // rate would hit zero
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.diurnal_amplitude = 0.5;
  o.diurnal_period_hours = 0.0;
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.flash_crowds.push_back({90.0, 10.0, 1.0});  // beyond hours
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.flash_crowds.push_back({1.0, 0.0, 1.0});  // empty span
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.registration_storms.push_back({1.0, 2.0, -0.1});
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.registration_storms.push_back({1.0, 2.0, 0.8});  // mix overflow
  EXPECT_THROW(o.validate(), std::invalid_argument);
  o = {};
  o.diurnal_amplitude = 0.9;
  o.flash_crowds.push_back({1.0, 2.0, 3.0});
  o.registration_storms.push_back({4.0, 2.0, 0.1});
  EXPECT_NO_THROW(o.validate());
}

// ---------------------------------------------------------------------------
// Fault schedules

TEST_F(ChaosFaultSchedule, EmptyScheduleIsIdentity) {
  service::WorkloadOptions o;
  o.accounts = 32;
  o.events = 200;
  o.hours = 4.0;
  const auto events = service::synthetic_workload(o);
  faults::FaultScheduleReport report;
  const auto arrivals = faults::apply_fault_schedule(events, {}, &report);
  ASSERT_EQ(arrivals.size(), events.size());
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i].seq, i);
    EXPECT_EQ(arrivals[i].event.time, events[i].time);
    EXPECT_EQ(arrivals[i].arrival, events[i].time);  // nondecreasing clock
  }
  EXPECT_EQ(report.total.events_in, events.size());
  EXPECT_EQ(report.total.events_out, events.size());
  EXPECT_TRUE(report.per_window.empty());
}

TEST_F(ChaosFaultSchedule, WindowSeqsStayGlobal) {
  service::WorkloadOptions o;
  o.accounts = 32;
  o.events = 300;
  o.hours = 6.0;
  o.seed = 2;
  const auto events = service::synthetic_workload(o);
  faults::FaultWindow w;
  w.from_event = 50;
  w.to_event = 150;
  w.rates.seed = 7;
  w.rates.duplicate = 0.4;
  faults::FaultScheduleReport report;
  const auto arrivals =
      faults::apply_fault_schedule(events, std::span(&w, 1), &report);

  ASSERT_EQ(report.per_window.size(), 1u);
  EXPECT_GT(report.total.duplicated, 0u);
  EXPECT_EQ(arrivals.size(), events.size() + report.total.duplicated);

  // Every original seq appears; every extra copy is an in-window dup
  // sharing its original's seq.
  std::vector<std::size_t> count(events.size(), 0);
  for (const faults::Arrival& a : arrivals) {
    ASSERT_LT(a.seq, events.size());
    ++count[a.seq];
  }
  std::uint64_t extras = 0;
  for (std::size_t seq = 0; seq < count.size(); ++seq) {
    ASSERT_GE(count[seq], 1u) << "lost seq " << seq;
    if (count[seq] > 1) {
      EXPECT_GE(seq, w.from_event);
      EXPECT_LT(seq, w.to_event);
      extras += count[seq] - 1;
    }
  }
  EXPECT_EQ(extras, report.total.duplicated);
}

TEST_F(ChaosFaultSchedule, DropWindowLosesOnlyWindowSeqs) {
  service::WorkloadOptions o;
  o.accounts = 32;
  o.events = 300;
  o.hours = 6.0;
  const auto events = service::synthetic_workload(o);
  faults::FaultWindow w;
  w.from_event = 100;
  w.to_event = 200;
  w.rates.seed = 13;
  w.rates.drop = 0.5;
  faults::FaultScheduleReport report;
  const auto arrivals =
      faults::apply_fault_schedule(events, std::span(&w, 1), &report);
  EXPECT_GT(report.total.dropped, 0u);
  std::set<std::uint64_t> seen;
  for (const faults::Arrival& a : arrivals) seen.insert(a.seq);
  for (std::uint64_t seq = 0; seq < events.size(); ++seq) {
    if (seq < w.from_event || seq >= w.to_event) {
      EXPECT_TRUE(seen.count(seq)) << "clean seq " << seq << " lost";
    }
  }
  EXPECT_EQ(events.size() - seen.size(), report.total.dropped);
}

TEST_F(ChaosFaultSchedule, ValidateRejectsBadWindows) {
  faults::FaultWindow a;
  a.from_event = 10;
  a.to_event = 10;  // empty
  EXPECT_THROW(faults::validate_fault_windows(std::span(&a, 1), 100),
               std::invalid_argument);
  a.to_event = 120;  // beyond the stream
  EXPECT_THROW(faults::validate_fault_windows(std::span(&a, 1), 100),
               std::invalid_argument);
  faults::FaultWindow b[2];
  b[0].from_event = 10;
  b[0].to_event = 50;
  b[1].from_event = 40;  // overlap
  b[1].to_event = 80;
  EXPECT_THROW(faults::validate_fault_windows(std::span(b, 2), 100),
               std::invalid_argument);
  b[1].from_event = 50;  // adjacent is fine
  EXPECT_NO_THROW(faults::validate_fault_windows(std::span(b, 2), 100));
}

// ---------------------------------------------------------------------------
// Down-shard routing

service::ShardRouterOptions down_router_options(const std::string& dir) {
  service::ShardRouterOptions o;
  o.shards = 3;
  o.shard.dir = dir;
  o.shard.wal_fsync = service::WalFsync::kNever;
  o.shard.wal_segment_records = 32;
  o.shard.checkpoint_every = 96;
  o.shard.detector.rule.invite_rate_min = 4.0;
  o.shard.detector.rule.outgoing_accept_max = 0.5;
  o.shard.detector.rule.min_requests = 5;
  return o;
}

service::WorkloadOptions down_workload() {
  service::WorkloadOptions w;
  w.accounts = 64;
  w.events = 400;
  w.hours = 6.0;
  w.seed = 3;
  w.burst_senders = 2;
  w.burst_fraction = 0.3;
  return w;
}

TEST_F(ChaosRouterDown, MarkDownCountsSkippedCopiesOutsideIdentity) {
  const auto events = service::synthetic_workload(down_workload());
  service::ShardRouter router(down_router_options(fresh_dir("down_count")));
  router.start();
  for (std::uint64_t i = 0; i < 100; ++i) router.offer(events[i], i);
  router.pump();
  ASSERT_TRUE(router.accounting_ok());

  router.mark_down(1);
  EXPECT_TRUE(router.is_down(1));
  EXPECT_EQ(router.down_count(), 1u);
  EXPECT_THROW(router.shard(1), std::logic_error);
  EXPECT_THROW(router.mark_down(1), std::logic_error);  // already down

  std::uint64_t skipped = 0;
  for (std::uint64_t i = 100; i < 200; ++i) {
    const service::RouteResult r = router.offer(events[i], i);
    // Skipped copies are owed, not routed: the per-offer identity holds
    // without them.
    EXPECT_EQ(r.routed, r.delivered + r.suppressed);
    skipped += r.skipped_down;
  }
  router.pump();
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(router.copies_skipped_down(), skipped);
  EXPECT_EQ(router.copies_routed(),
            router.copies_delivered() + router.copies_suppressed());
  EXPECT_TRUE(router.accounting_ok());
  // stats_json marks the hole and surfaces the skipped counter.
  const std::string stats = router.stats_json();
  EXPECT_NE(stats.find("\"down\":true"), std::string::npos);
  EXPECT_NE(stats.find("skipped_down"), std::string::npos);
}

/// Re-drives `events[from..n)` with pumps, offering every event; live
/// shards suppress what they already have.
void redrive(service::ShardRouter& router, const std::vector<osn::Event>& log,
             std::uint64_t from) {
  for (std::uint64_t i = from; i < log.size(); ++i) {
    router.offer(log[i], i);
    if (i % 16 == 15) router.pump();
  }
  router.flush(true);
}

TEST_F(ChaosRouterDown, RestartTwiceUnderLiveTrafficKeepsIdentity) {
  const auto events = service::synthetic_workload(down_workload());

  // Control: uninterrupted run.
  service::ShardRouter clean(down_router_options(fresh_dir("twice_clean")));
  clean.start();
  redrive(clean, events, 0);
  clean.sweep_flags(7.0);
  const core::FlagBatch want = clean.take_flagged();
  std::vector<std::string> want_stats;
  for (std::uint32_t i = 0; i < 3; ++i) {
    want_stats.push_back(clean.shard(i).stats_json());
  }

  // Same stream, with shard 1 taken down and recovered twice, live
  // traffic flowing to the survivors in between. The latent assumption
  // this regression pins: the min-frontier math must tolerate one
  // member recovering repeatedly while its peers never stop.
  service::ShardRouter router(down_router_options(fresh_dir("twice_chaos")));
  router.start();
  std::uint64_t cursor = 0;
  const auto drive_to = [&](std::uint64_t until) {
    for (; cursor < until; ++cursor) {
      router.offer(events[cursor], cursor);
      if (cursor % 16 == 15) router.pump();
    }
  };
  drive_to(120);
  router.mark_down(1);
  drive_to(200);  // survivors keep serving; shard 1's copies are owed
  {
    const service::RecoveryReport rec = router.restart_shard(1);
    EXPECT_LE(rec.next_seq, 120u);
    cursor = rec.next_seq;  // rewind: survivors suppress, victim catches up
  }
  drive_to(260);
  router.mark_down(1);
  drive_to(320);
  {
    const service::RecoveryReport rec = router.restart_shard(1);
    EXPECT_LE(rec.next_seq, 260u);
    EXPECT_GT(rec.next_seq, 0u);
    cursor = rec.next_seq;
  }
  redrive(router, events, cursor);
  ASSERT_TRUE(router.accounting_ok());
  router.sweep_flags(7.0);

  const core::FlagBatch got = router.take_flagged();
  ASSERT_TRUE(flags_equal(got, want));
  for (std::uint32_t i = 0; i < 3; ++i) {
    EXPECT_EQ(router.shard(i).stats_json(), want_stats[i]) << "shard " << i;
  }
}

// ---------------------------------------------------------------------------
// The orchestrator

TEST_F(ChaosScenario, GoldenManifestIdentityUnderFire) {
  const ScenarioManifest m = load_manifest(golden_path());
  ScenarioOutcome disturbed;
  ScenarioOutcome control;
  const IdentityVerdict v =
      verify_identity(m, fresh_dir("golden"), &disturbed, &control);
  EXPECT_TRUE(v.flags_identical);
  EXPECT_TRUE(v.stats_identical);
  EXPECT_TRUE(v.accounting_held);
  ASSERT_TRUE(v.ok());

  // Two process kills plus the [disk] power cut (reported as a kill).
  EXPECT_EQ(disturbed.kills, 3u);
  EXPECT_EQ(disturbed.recoveries, 3u);
  EXPECT_EQ(disturbed.kills_missed, 0u);
  EXPECT_GT(disturbed.copies_skipped_down, 0u);
  EXPECT_GT(disturbed.faults.total.duplicated, 0u);
  EXPECT_GT(disturbed.flags.size(), 0u);
  EXPECT_EQ(disturbed.identity_failures, 0u);
  EXPECT_EQ(control.kills, 0u);
  EXPECT_EQ(control.copies_skipped_down, 0u);

  // Both [disk] windows armed; the ENOSPC window rode shard 0 through
  // the storage-degraded tier and the close flushed it back; the
  // power-loss window cut shard 0's disk in cooldown.
  EXPECT_EQ(disturbed.disk_windows, 2u);
  EXPECT_EQ(disturbed.disk_windows_missed, 0u);
  EXPECT_EQ(disturbed.power_cuts, 1u);
  EXPECT_EQ(disturbed.storage_degraded, 1u);
  EXPECT_EQ(disturbed.storage_recoveries, 1u);
  EXPECT_EQ(control.disk_windows, 0u);
  EXPECT_EQ(control.power_cuts, 0u);

  // The crash-during-overload kill fired inside the overload phase and
  // the phase pushed shards through tier transitions.
  ASSERT_EQ(disturbed.phases.size(), 3u);
  EXPECT_EQ(disturbed.phases[1].name, "overload");
  EXPECT_EQ(disturbed.phases[1].kills, 1u);
  EXPECT_GT(disturbed.phases[1].tier_transitions, 0u);
  // Cooldown holds the recovery-under-fire kill and the power cut.
  EXPECT_EQ(disturbed.phases[2].kills, 2u);
  // Recovery under fire: live traffic kept flowing while down, so the
  // arrivals attributed to each kill's phase exceed its event range.
  EXPECT_GT(disturbed.arrivals_total, m.workload.events);
}

TEST_F(ChaosScenario, GoldenByteIdenticalAcrossThreadCounts) {
  const ScenarioManifest m = load_manifest(golden_path());
  core::set_thread_count(1);
  ScenarioOutcome one;
  const IdentityVerdict v1 =
      verify_identity(m, fresh_dir("golden_t1"), &one);
  core::set_thread_count(8);
  ScenarioOutcome eight;
  const IdentityVerdict v8 =
      verify_identity(m, fresh_dir("golden_t8"), &eight);
  core::set_thread_count(0);
  EXPECT_TRUE(v1.ok());
  EXPECT_TRUE(v8.ok());
  // And the two thread counts agree with each other, byte for byte.
  EXPECT_TRUE(flags_equal(one.flags, eight.flags));
  EXPECT_EQ(one.shard_stats, eight.shard_stats);
}

TEST_F(ChaosScenario, BoundaryKillThatNeverArrivesIsMissed) {
  ScenarioManifest m = small_manifest();
  KillSpec k;
  k.shard = 1;
  k.at_boundary = 1000000;  // far past any op this run makes
  k.use_boundary = true;
  k.down_for = 10;
  m.kills = {k};
  ChaosOrchestrator orchestrator(m);
  ChaosRunOptions run;
  run.dir = fresh_dir("missed_kill");
  const ScenarioOutcome out = orchestrator.run(run);
  EXPECT_EQ(out.kills, 0u);
  EXPECT_EQ(out.recoveries, 0u);
  EXPECT_EQ(out.kills_missed, 1u);
  EXPECT_EQ(out.identity_failures, 0u);
}

TEST_F(ChaosScenario, NonIdentityManifestStillHoldsAccounting) {
  ScenarioManifest m = small_manifest();
  m.fault_windows[0].rates.drop = 0.2;  // identity off the table
  KillSpec k;
  k.shard = 0;
  k.at_event = 250;
  k.down_for = 60;
  m.kills = {k};
  ASSERT_FALSE(m.identity_expected());
  ChaosOrchestrator orchestrator(m);
  ChaosRunOptions run;
  run.dir = fresh_dir("droppy");
  const ScenarioOutcome out = orchestrator.run(run);
  EXPECT_EQ(out.kills, 1u);
  EXPECT_EQ(out.recoveries, 1u);
  EXPECT_GT(out.faults.total.dropped, 0u);
  EXPECT_EQ(out.identity_failures, 0u);
}

// ---------------------------------------------------------------------------
// Kill-at-every-op sweep

/// Learns the per-shard storage-op counts from the undisturbed run,
/// then kills `shard` at op k (stride-sampled) and pins flags +
/// per-shard stats against the control every time.
void sweep_shard(const ScenarioManifest& base, std::uint32_t shard,
                 std::size_t stride, const ScenarioOutcome& control,
                 const std::string& tag) {
  ChaosOrchestrator probe(base);
  SCOPED_TRACE(tag + " shard " + std::to_string(shard));
  const std::uint64_t crossings = control.boundary_crossings[shard];
  ASSERT_GT(crossings, 0u);
  std::size_t fired = 0;
  for (std::uint64_t k = 0; k < crossings; k += stride) {
    ScenarioManifest m = base;
    KillSpec kill;
    kill.shard = shard;
    kill.at_boundary = k;
    kill.use_boundary = true;
    kill.down_for = 50;
    m.kills = {kill};
    ChaosOrchestrator orchestrator(m);
    ChaosRunOptions run;
    run.dir = fresh_dir("sweep_" + tag + "_s" + std::to_string(shard) + "_k" +
                        std::to_string(k));
    const ScenarioOutcome out = orchestrator.run(run);
    SCOPED_TRACE("op " + std::to_string(k));
    // Ops before the kill arms (boot) or late in the run (final flush)
    // can no longer fire — the kill is disarmed before the terminal
    // drain. Either way the run must match the control byte for byte.
    ASSERT_EQ(out.identity_failures, 0u);
    ASSERT_TRUE(flags_equal(out.flags, control.flags));
    ASSERT_EQ(out.shard_stats, control.shard_stats);
    if (out.kills == 1) {
      ASSERT_EQ(out.recoveries, 1u);
      ++fired;
    } else {
      ASSERT_EQ(out.kills_missed, 1u);
    }
  }
  EXPECT_GT(fired, 0u);
}

TEST_F(ScenarioKillSweep, EveryShardEveryBoundarySingleThread) {
  core::set_thread_count(1);
  const ScenarioManifest base = small_manifest();
  ChaosOrchestrator orchestrator(base);
  ChaosRunOptions run;
  run.dir = fresh_dir("sweep_control_t1");
  run.disturbed = false;
  const ScenarioOutcome control = orchestrator.run(run);
  ASSERT_EQ(control.boundary_crossings.size(), base.shards);
  for (std::uint32_t s = 0; s < base.shards; ++s) {
    sweep_shard(base, s, 1, control, "t1");
  }
  core::set_thread_count(0);
}

TEST_F(ScenarioKillSweep, EveryShardStridedEightThreads) {
  core::set_thread_count(8);
  const ScenarioManifest base = small_manifest();
  ChaosOrchestrator orchestrator(base);
  ChaosRunOptions run;
  run.dir = fresh_dir("sweep_control_t8");
  run.disturbed = false;
  const ScenarioOutcome control = orchestrator.run(run);
  for (std::uint32_t s = 0; s < base.shards; ++s) {
    sweep_shard(base, s, 7, control, "t8");
  }
  core::set_thread_count(0);
}

}  // namespace
}  // namespace sybil::chaos
