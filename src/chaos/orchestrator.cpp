#include "chaos/orchestrator.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "io/faulty_vfs.h"
#include "io/vfs.h"

namespace sybil::chaos {

namespace fs = std::filesystem;

ChaosOrchestrator::ChaosOrchestrator(ScenarioManifest manifest)
    : manifest_(std::move(manifest)) {
  manifest_.validate();
}

bool flags_equal(const core::FlagBatch& a, const core::FlagBatch& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const core::FlagRecord& ra = a[i];
    const core::FlagRecord& rb = b[i];
    if (ra.account != rb.account || ra.flagged_at != rb.flagged_at ||
        ra.features.as_vector() != rb.features.as_vector() ||
        ra.defense_scored != rb.defense_scored ||
        ra.defense_rank != rb.defense_rank ||
        ra.defense_clustering != rb.defense_clustering) {
      return false;
    }
  }
  return true;
}

ScenarioOutcome ChaosOrchestrator::run(const ChaosRunOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("ChaosRunOptions::dir must be set");
  }
  const bool disturbed = options.disturbed;
  fs::remove_all(options.dir);

  const std::vector<osn::Event> events =
      service::synthetic_workload(manifest_.workload);

  ScenarioOutcome out;
  const std::vector<faults::Arrival> arrivals =
      disturbed
          ? faults::apply_fault_schedule(events, manifest_.fault_windows,
                                         &out.faults)
          : faults::apply_fault_schedule(events, {}, &out.faults);

  // The boundary schedule: a pure function of the manifest, so the
  // disturbed and undisturbed runs fire the same pump/sweep/checkpoint
  // sequence at the same global-seq points (see orchestrator.h).
  struct Boundary {
    std::uint64_t seq = 0;
    bool sweep = false;
    double time = 0.0;  // clean time of event seq-1 (sweep stamp)
    std::size_t phase = 0;
  };
  std::vector<Boundary> boundaries;
  std::vector<std::size_t> sweep_at;  // boundary index of the k-th sweep
  {
    std::uint64_t prev = 0;
    for (std::size_t pi = 0; pi < manifest_.phases.size(); ++pi) {
      const PhaseSpec& p = manifest_.phases[pi];
      for (std::uint64_t s = prev + p.pump_interval; s < p.until_event;
           s += p.pump_interval) {
        boundaries.push_back({s, false, events[s - 1].time, pi});
      }
      boundaries.push_back(
          {p.until_event, p.sweep, events[p.until_event - 1].time, pi});
      if (p.sweep) sweep_at.push_back(boundaries.size() - 1);
      prev = p.until_event;
    }
  }

  out.phases.resize(manifest_.phases.size());
  {
    std::uint64_t prev = 0;
    for (std::size_t pi = 0; pi < manifest_.phases.size(); ++pi) {
      out.phases[pi].name = manifest_.phases[pi].name;
      out.phases[pi].first_event = prev;
      out.phases[pi].until_event = manifest_.phases[pi].until_event;
      prev = manifest_.phases[pi].until_event;
    }
  }

  service::ShardRouterOptions ro;
  ro.shards = manifest_.shards;
  ro.shard.dir = options.dir;
  ro.shard.detector = manifest_.detector_options();
  ro.shard.wal_fsync = manifest_.fsync;
  ro.shard.wal_segment_records = manifest_.wal_segment_records;
  // The boundary schedule owns every checkpoint: index-triggered
  // checkpoints would fire at different WAL positions after a rewind
  // and desynchronize the runs.
  ro.shard.checkpoint_every = 0;
  ro.shard.checkpoint_retain = manifest_.checkpoint_retain;

  // Per-shard injectable storage, on every run: kills are process
  // crashes at a shard's storage ops, [disk] windows fault the same
  // device, and the control run reports each shard's op count (the
  // kill-at-every-op sweeps learn their iteration space there).
  std::vector<std::unique_ptr<io::FaultyVfs>> vfs;
  vfs.reserve(manifest_.shards);
  for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
    vfs.push_back(std::make_unique<io::FaultyVfs>());
  }
  ro.shard_vfs = [&vfs](std::uint32_t i) -> io::Vfs* { return vfs[i].get(); };

  service::ShardRouter router(ro);
  router.start();

  // Schedule state.
  struct Downtime {
    KillSpec spec;
    std::uint64_t restart_at = 0;  // head position that triggers restart
  };
  std::optional<KillSpec> armed;
  std::optional<Downtime> down;
  std::size_t kill_idx = 0;
  std::optional<DiskFaultSpec> disk_active;
  std::size_t disk_idx = 0;
  std::vector<std::size_t> bidx(manifest_.shards, 0);  // next boundary, per shard
  std::size_t gb = 0;          // next boundary not yet fired globally
  std::uint64_t head = 0;      // one past the highest fresh seq offered
  std::size_t cursor = 0;      // next arrival
  std::size_t cur_phase = 0;
  std::uint64_t tier_base = 0;

  const auto fleet_tiers = [&]() {
    std::uint64_t n = 0;
    for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
      if (!router.is_down(i)) n += router.shard(i).tier_transitions();
    }
    return n;
  };

  const auto check_identity = [&]() {
    ++out.identity_checks;
    ++out.phases[cur_phase].identity_checks;
    if (!router.accounting_ok()) {
      ++out.identity_failures;
      ++out.phases[cur_phase].identity_failures;
    }
  };

  const auto fleet_level = [&]() {
    if (down) return false;
    for (std::size_t b : bidx) {
      if (b != gb) return false;
    }
    return true;
  };

  // One shard's boundary ops, in the canonical order: pump to the
  // boundary's stream position, sweep (if scheduled), checkpoint.
  // pump_through and checkpoint_now are idempotent re-fired at the same
  // position; sweeps are not, which is why recovery counts durable
  // sweeps to find the re-fire start (do_restart below).
  const auto fire_for_shard = [&](std::uint32_t i, const Boundary& b) {
    service::ServiceSupervisor& s = router.shard(i);
    s.pump_through(b.seq - 1);
    if (b.sweep) s.sweep_flags(b.time);
    s.checkpoint_now();
  };

  // The armed kill fired: the victim's process died at a storage op.
  // Mark it down while its vfs is still dead (buffered WAL bytes die
  // with the process), then reboot the device so recovery can read
  // what survived.
  const auto on_crash = [&]() {
    router.mark_down(armed->shard);
    vfs[armed->shard]->reboot();
    down = Downtime{*armed, head + armed->down_for};
    armed.reset();
    ++out.kills;
    ++out.phases[cur_phase].kills;
  };

  // A power cut fired on the active [disk] window's shard: its "disk"
  // is dead (unsynced tail lost or torn per the window's seed). Treat
  // it like a kill — mark down, reboot the vfs so recovery can read
  // what survived, restart when the window closes, re-drive from the
  // victim's frontier.
  const auto on_power_cut = [&]() {
    const std::uint32_t victim = disk_active->shard;
    router.mark_down(victim);
    vfs[victim]->reboot();
    KillSpec spec;
    spec.shard = victim;
    down = Downtime{spec, disk_active->to_event};
    disk_active.reset();
    ++out.power_cuts;
    ++out.kills;
    ++out.phases[cur_phase].kills;
  };

  // Routes a fatal storage fault to its disturbance; anything else is
  // a harness bug. ENOSPC/EIO degrade in place inside the supervisor
  // and never unwind this far.
  const auto on_fatal = [&](const io::VfsError& e) {
    if (e.kind() == io::VfsFaultKind::kProcessCrash && armed) {
      on_crash();
    } else if (e.kind() == io::VfsFaultKind::kPowerLoss && disk_active) {
      on_power_cut();
    } else {
      throw;  // called from a catch block: rethrows `e` as caught
    }
  };

  const auto fire_global = [&](const Boundary& b) {
    ++out.phases[b.phase].boundaries;
    if (b.sweep) ++out.phases[b.phase].sweeps;
    if (fleet_level()) {
      // Steady state: one parallel pump lane per shard — the same
      // deterministic-parallel path pump() uses.
      router.pump_through(b.seq - 1);
    } else {
      for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
        if (!router.is_down(i) && bidx[i] == gb) {
          router.shard(i).pump_through(b.seq - 1);
        }
      }
    }
    for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
      if (router.is_down(i) || bidx[i] != gb) continue;
      try {
        if (b.sweep) router.shard(i).sweep_flags(b.time);
        router.shard(i).checkpoint_now();
        bidx[i] = gb + 1;
      } catch (const io::VfsError& e) {
        // Death (or a power cut) at the checkpoint boundary: the sweep
        // above ran but died with the process; do_restart recomputes
        // bidx from what proved durable.
        on_fatal(e);
      }
    }
  };

  const auto do_restart = [&]() {
    const std::uint32_t v = down->spec.shard;
    const service::RecoveryReport rec = router.restart_shard(v);
    ++out.recoveries;
    ++out.phases[cur_phase].recoveries;
    // The recovered state retains exactly the sweeps its newest durable
    // checkpoint saw; pumps and checkpoints re-fire idempotently, so
    // the sweep count alone pins the boundary to resume from.
    const std::uint64_t durable_sweeps = router.shard(v).sweeps();
    bidx[v] = durable_sweeps == 0
                  ? 0
                  : sweep_at[static_cast<std::size_t>(durable_sweeps) - 1] + 1;
    // Rewind to the victim's redelivery frontier: every live shard
    // suppresses the re-walked copies, the victim replays its exact
    // undisturbed admission trajectory.
    std::size_t r = 0;
    while (r < arrivals.size() && arrivals[r].seq < rec.next_seq) ++r;
    cursor = std::min(cursor, r);
    down.reset();
  };

  const auto maybe_arm = [&]() {
    if (!disturbed || armed || down || disk_active ||
        kill_idx >= manifest_.kills.size()) {
      return;
    }
    // A kill never arms while the fleet is uneven (a victim catching
    // up): one disturbance at a time keeps recovery analyzable.
    if (!fleet_level()) return;
    const KillSpec& k = manifest_.kills[kill_idx];
    io::FaultyVfs& v = *vfs[k.shard];
    if (k.use_boundary && k.at_boundary < v.ops()) {
      ++out.kills_missed;  // op already passed (deferred too long)
      ++kill_idx;
      return;
    }
    if (!k.use_boundary && head < k.at_event) return;
    // The victim's process dies at one op of its vfs: the absolute op
    // index of an at_boundary kill, the next op of an at_event kill.
    io::FaultConfig cfg;
    cfg.fail_from = k.use_boundary ? k.at_boundary : v.ops();
    cfg.fail_count = 1;
    cfg.fail_kind = io::VfsFaultKind::kProcessCrash;
    cfg.seed = cfg.fail_from;  // torn-prefix length of a crashing write
    v.configure(cfg);
    armed = k;
    ++kill_idx;
  };

  // Close the active [disk] window: clear the fault plan, then force
  // the shard's storage retry so the buffered WAL backlog flushes and
  // full durability resumes before any later disturbance arms.
  const auto close_disk_window = [&]() {
    const std::uint32_t s = disk_active->shard;
    vfs[s]->clear_faults();
    if (!router.is_down(s) &&
        disk_active->kind != DiskFaultSpec::Kind::kPowerLoss &&
        router.shard(s).storage_degraded()) {
      ++out.storage_degraded;
      if (router.shard(s).retry_storage_now()) ++out.storage_recoveries;
    }
    disk_active.reset();
  };

  const auto disk_tick = [&]() {
    if (!disturbed) return;
    if (disk_active && head >= disk_active->to_event) close_disk_window();
    if (disk_active || armed || down) return;
    while (disk_idx < manifest_.disk_faults.size()) {
      const DiskFaultSpec& d = manifest_.disk_faults[disk_idx];
      if (head >= d.to_event) {
        // The whole range passed while the fleet was uneven or another
        // disturbance was live: reported, never silently dropped.
        ++out.disk_windows_missed;
        ++disk_idx;
        continue;
      }
      if (head >= d.from_event && fleet_level()) {
        io::FaultyVfs& v = *vfs[d.shard];
        // The window models a fault beginning *now* on an otherwise
        // healthy device: everything the run wrote before it is
        // declared durable (the barrier the fsync knob may have
        // skipped), so a power cut risks only in-window state — a prior
        // checkpoint that already justified a WAL prune cannot be
        // retroactively unrenamed into a recovery hole.
        v.settle();
        io::FaultConfig cfg;
        cfg.seed = d.seed;
        switch (d.kind) {
          case DiskFaultSpec::Kind::kNoSpace:
            cfg.byte_budget = 0;  // every write from here is ENOSPC
            break;
          case DiskFaultSpec::Kind::kIoError:
            cfg.fail_from = v.ops();  // every op from here is EIO...
            cfg.fail_count = io::FaultConfig::kNever;  // ...until cleared
            cfg.fail_kind = io::VfsFaultKind::kIoError;
            break;
          case DiskFaultSpec::Kind::kPowerLoss:
            cfg.cut_at_op = v.ops();  // cut at the shard's next disk op
            break;
        }
        v.configure(cfg);
        disk_active = d;
        ++out.disk_windows;
        ++disk_idx;
      }
      break;
    }
  };

  while (cursor < arrivals.size() || down) {
    if (cursor >= arrivals.size()) {
      // Stream ended with the victim still down: recover now and let
      // the rewound cursor drive the catch-up.
      do_restart();
      continue;
    }
    disk_tick();
    maybe_arm();
    const faults::Arrival& a = arrivals[cursor];

    // A recovered victim lagging behind the global boundary schedule
    // fires its missed boundaries exactly where the undisturbed run
    // fired them: before the first offer at or past each boundary seq.
    for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
      if (router.is_down(i)) continue;
      while (bidx[i] < gb && boundaries[bidx[i]].seq <= a.seq) {
        fire_for_shard(i, boundaries[bidx[i]]);
        ++bidx[i];
      }
    }

    try {
      router.offer(a.event, a.seq);
    } catch (const io::VfsError& e) {
      on_fatal(e);
      // Complete the torn delivery: shards ordered after the victim in
      // the route plan have not seen this seq, and later offers would
      // advance their frontiers past it — re-offer before anything
      // newer (the min-frontier contract; see ShardRouter::mark_down).
      router.offer(a.event, a.seq);
    }
    ++out.arrivals_total;
    ++out.phases[cur_phase].arrivals;
    check_identity();

    const bool fresh = a.seq >= head;
    ++cursor;
    if (!fresh) continue;
    head = a.seq + 1;
    while (cur_phase + 1 < out.phases.size() &&
           head > manifest_.phases[cur_phase].until_event) {
      const std::uint64_t t = fleet_tiers();
      // Saturate: a restarted shard re-bases its (ops-only, never
      // checkpointed) transition counter, so the fleet sum can step
      // backwards across a recovery.
      out.phases[cur_phase].tier_transitions = t > tier_base ? t - tier_base : 0;
      tier_base = t;
      ++cur_phase;
    }
    while (gb < boundaries.size() && boundaries[gb].seq <= head) {
      fire_global(boundaries[gb]);
      ++gb;
      check_identity();
    }
    if (down && head >= down->restart_at) do_restart();
  }

  // A kill whose op never arrived (no further traffic on the victim)
  // is disarmed before the terminal drain and reported, not silently
  // dropped.
  if (armed) {
    vfs[armed->shard]->clear_faults();
    armed.reset();
    ++out.kills_missed;
  }
  while (kill_idx < manifest_.kills.size()) {
    ++out.kills_missed;
    ++kill_idx;
  }

  // A [disk] window still open at stream end (to_event == events, or a
  // tail of dropped arrivals) closes before the terminal boundaries and
  // flush — the run must end fully durable, with the backlog flushed.
  if (disk_active) close_disk_window();
  while (disk_idx < manifest_.disk_faults.size()) {
    ++out.disk_windows_missed;
    ++disk_idx;
  }

  // Level the fleet: any boundary still owed (a victim recovered at
  // stream end, or a final stretch of dropped events) fires now, in
  // order, before the terminal flush.
  for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
    while (bidx[i] < gb) {
      fire_for_shard(i, boundaries[bidx[i]]);
      ++bidx[i];
    }
  }
  while (gb < boundaries.size()) {
    fire_global(boundaries[gb]);
    ++gb;
  }
  check_identity();

  router.flush(true);
  router.sweep_flags(manifest_.workload.hours + 1.0);
  check_identity();

  {
    const std::uint64_t t = fleet_tiers();
    out.phases[cur_phase].tier_transitions = t > tier_base ? t - tier_base : 0;
  }
  out.copies_skipped_down = router.copies_skipped_down();
  for (const auto& v : vfs) out.boundary_crossings.push_back(v->ops());
  out.flags = router.take_flagged();
  out.shard_stats.reserve(manifest_.shards);
  for (std::uint32_t i = 0; i < manifest_.shards; ++i) {
    out.shard_stats.push_back(router.shard(i).stats_json());
  }
  out.router_stats = router.stats_json();
  return out;
}

IdentityVerdict verify_identity(const ScenarioManifest& manifest,
                                const std::string& dir,
                                ScenarioOutcome* disturbed,
                                ScenarioOutcome* undisturbed) {
  ChaosOrchestrator orchestrator(manifest);
  ChaosRunOptions d;
  d.dir = dir + "/disturbed";
  d.disturbed = true;
  ChaosRunOptions u;
  u.dir = dir + "/undisturbed";
  u.disturbed = false;
  ScenarioOutcome dd = orchestrator.run(d);
  ScenarioOutcome uu = orchestrator.run(u);
  IdentityVerdict v;
  v.flags_identical = flags_equal(dd.flags, uu.flags);
  v.stats_identical = dd.shard_stats == uu.shard_stats;
  v.accounting_held =
      dd.identity_failures == 0 && uu.identity_failures == 0;
  if (disturbed != nullptr) *disturbed = std::move(dd);
  if (undisturbed != nullptr) *undisturbed = std::move(uu);
  return v;
}

}  // namespace sybil::chaos
