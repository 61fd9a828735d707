// End-to-end benchmark of the sharded detection service.
//
// Drives service::ShardRouter from outside, the way sybil_service does:
// one caller, a closed loop over 1024-event batches. Each batch is
// offer_batch + pump, plus whatever the workload schedules at that
// batch (an hourly sweep and its take_flagged). The stream ends with
// flush(false), a final sweep, a stop (the router is destroyed) and a
// restart on the same state root, timed until the replayed suffix is
// re-applied. One such pass is a *cycle*; a run repeats cycles for
// --seconds and reports medians. The reference computation below runs
// the same ingest path first, so the cycles start warm.
//
//   perfbench --workload ingest-1shard --seed 1 --seconds 20 --trace 0
//             --state-dir .bench_state/x   (one line)
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates traced
// and untraced cycles, records spans around every call into a layer,
// writes them to --trace-out, and prints the per-layer metrics, each
// layer's self time and the tracing overhead. The last stdout line is
// one JSON object: {"correct","attempted","failed","metrics"}.
//
// Every cycle passes a correctness gate: the merged FlagBatch digest
// equals that of a bare core::StreamDetector fed the same stream with
// the same sweep points, accounting_ok() holds before the stop and
// after the restart, and the restarted shards' replay-exact counters
// equal the pre-stop ones (sweep-driven counters excluded: sweeps are
// not WAL-logged).
#include <malloc.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/detector_state.h"
#include "core/stream_detector.h"
#include "harness.h"
#include "service/checkpoint.h"
#include "service/defense_scorer.h"
#include "service/router.h"
#include "service/workload.h"

namespace {

namespace fs = std::filesystem;
using namespace sybil;
using perfbench::Clock;
using perfbench::ScopedSpan;
using perfbench::seconds_between;

constexpr std::size_t kBatch = 1024;
/// Extra fresh-root set-ups per cycle: setup_s is a median over these.
constexpr int kSetupsPerCycle = 8;
/// Fewest cycles an untraced run reports medians over.
constexpr int kMinCycles = 3;
/// Stop starting cycles once this much wall time is spent, whatever
/// --seconds says (a run must end well inside three minutes).
constexpr double kHardBudgetS = 120.0;

struct Workload {
  const char* name;
  std::uint32_t shards;
  int threads;
  service::WorkloadOptions stream;
  /// Event times are pulled back by up to this many hours (seqs stay in
  /// offer order), so the reorder buffer reorders.
  double jitter_hours;
  service::WalFsync fsync;
  bool io_fsync;
  std::uint64_t checkpoint_every;
  bool defense;
};

Workload make_workload(const std::string& name) {
  Workload w{};
  w.name = nullptr;
  w.stream.hours = 96.0;
  if (name == "ingest-1shard") {
    w.name = "ingest-1shard";
    w.shards = 1;
    w.threads = 1;
    w.stream.hours = 128.0;
    w.stream.accounts = 250000;
    w.stream.events = 1000000;
    w.stream.burst_senders = 1100;
    w.stream.burst_fraction = 0.9;
    w.jitter_hours = 0.0;
    w.fsync = service::WalFsync::kNever;
    w.io_fsync = false;
    w.checkpoint_every = 0;
    w.defense = false;
  } else if (name == "durable-4shard") {
    w.name = "durable-4shard";
    w.shards = 4;
    w.threads = 4;
    w.stream.accounts = 60000;
    w.stream.events = 600000;
    w.stream.burst_senders = 1100;
    w.stream.burst_fraction = 0.9;
    w.jitter_hours = 6.0;
    w.fsync = service::WalFsync::kEveryAppend;
    w.io_fsync = true;
    // The service's own cadence, so a checkpoint-policy change shows.
    w.checkpoint_every = service::ServiceOptions{}.checkpoint_every;
    w.defense = false;
  } else if (name == "defense-sweep") {
    w.name = "defense-sweep";
    w.shards = 1;
    w.threads = 1;
    w.stream.hours = 128.0;
    w.stream.accounts = 60000;
    w.stream.events = 850000;
    w.stream.burst_senders = 1050;
    w.stream.burst_fraction = 0.95;
    w.jitter_hours = 0.0;
    w.fsync = service::WalFsync::kNever;
    w.io_fsync = false;
    w.checkpoint_every = 0;
    w.defense = true;
  }
  return w;
}

/// The threshold rule the synthetic burst senders are built to cross —
/// the same relaxation sybil_service runs with.
core::DetectorOptions detector_options(const Workload& w) {
  core::DetectorOptions d;
  d.rule.invite_rate_min = 4.0;
  d.rule.outgoing_accept_max = 0.5;
  d.rule.min_requests = 5;
  if (w.defense) {
    // A fixed set of organic trust seeds, independent of --seed.
    d.defense.enabled = true;
    const std::uint32_t first = w.stream.burst_senders + 1;
    const std::uint32_t span = w.stream.accounts - first;
    for (std::uint32_t i = 0; i < 32; ++i) {
      d.defense.seeds.push_back(first + i * (span / 32));
    }
  }
  return d;
}

std::vector<osn::Event> make_stream(const Workload& w) {
  std::vector<osn::Event> events = service::synthetic_workload(w.stream);
  if (w.jitter_hours > 0.0) {
    std::mt19937_64 rng(w.stream.seed ^ 0x6a09e667f3bcc909ull);
    for (osn::Event& e : events) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      e.time = std::max(0.0, e.time - u * w.jitter_hours);
    }
  }
  return events;
}

/// What the caller does after batch b's offer + pump.
struct Schedule {
  std::vector<double> newest;     // newest offered event time after batch b
  std::vector<char> sweep;        // 1 = sweep + take_flagged at batch b
  double final_now = 0.0;         // final sweep's clock
};

Schedule make_schedule(const Workload& w, const std::vector<osn::Event>& ev) {
  Schedule s;
  const std::size_t batches = (ev.size() + kBatch - 1) / kBatch;
  s.newest.resize(batches);
  s.sweep.resize(batches);
  double newest = 0.0;
  double last_hour = 0.0;
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t end = std::min(ev.size(), (b + 1) * kBatch);
    for (std::size_t i = b * kBatch; i < end; ++i) {
      newest = std::max(newest, ev[i].time);
    }
    s.newest[b] = newest;
    // Hourly sweeps on the stream clock.
    if (std::floor(newest) > last_hour) {
      last_hour = std::floor(newest);
      s.sweep[b] = 1;
    }
  }
  s.final_now = w.stream.hours + 1.0;
  return s;
}

struct Reference {
  std::uint64_t digest = 0;
  std::size_t flags = 0;
};

/// The oracle: one bare StreamDetector, same stream, same sweep points.
Reference reference_flags(const core::DetectorOptions& opts,
                          const std::vector<osn::Event>& ev,
                          const Schedule& s) {
  core::StreamDetector d(opts);
  std::vector<core::FlagRecord> all;
  const auto drain = [&] {
    core::FlagBatch batch = d.take_flagged();
    all.insert(all.end(), batch.records.begin(), batch.records.end());
  };
  for (std::size_t b = 0; b < s.sweep.size(); ++b) {
    const std::size_t end = std::min(ev.size(), (b + 1) * kBatch);
    for (std::size_t i = b * kBatch; i < end; ++i) d.ingest(ev[i], i);
    if (s.sweep[b]) {
      d.sweep_flags(s.newest[b]);
      drain();
    }
  }
  d.finish();
  d.sweep_flags(s.final_now);
  drain();
  return {perfbench::flag_digest(all), all.size()};
}

/// Removes `"key":<number>` members from flat JSON text (the per-shard
/// stats carry no strings that could contain these keys).
std::string drop_fields(std::string json, const std::vector<std::string>& keys) {
  for (const std::string& key : keys) {
    const std::string needle = "\"" + key + "\":";
    for (std::size_t pos; (pos = json.find(needle)) != std::string::npos;) {
      std::size_t end = pos + needle.size();
      while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
      if (end < json.size() && json[end] == ',') {
        ++end;
      } else if (pos > 0 && json[pos - 1] == ',') {
        --pos;
      }
      json.erase(pos, end - pos);
    }
  }
  return json;
}

/// Sweep-driven counters: sweeps (and the defense refresh that rides
/// them) are not WAL-logged, so a restart does not replay them.
const std::vector<std::string>& sweep_driven_fields() {
  static const std::vector<std::string> keys = {
      "sweeps",       "sweep_flagged", "refreshes",   "dirty",
      "rank_full_recomputes", "rank_updates", "rank_rounds",
      "rank_propagated"};
  return keys;
}

struct Cycle {
  bool traced = false;
  std::string failure;  // empty = passed the gate

  double setup_s = 0.0;
  std::vector<double> extra_setup_s;
  double stream_s = 0.0;
  std::vector<double> batch_ms;
  std::vector<double> lags_h;
  std::uint64_t digest = 0;
  std::size_t flags = 0;
  perfbench::IoCounts io;
  double rss_growth_mb = 0.0;
  double recovery_s = 0.0;
  double served_ratio = 0.0;

  // Layer numbers (traced cycles only, except the counts).
  double offer_s = 0.0, pump_s = 0.0, sweep_s = 0.0, flush_s = 0.0;
  double checkpoint_save_s = 0.0;
  double recovery_start_s = 0.0, recovery_catchup_s = 0.0;
  double checkpoint_load_s = 0.0;
  std::uint64_t records_replayed = 0;
  std::uint64_t reorder_peak = 0;
  std::uint64_t offers = 0, copies = 0;
  double shard_skew = 0.0;
  std::uint64_t stream_state_bytes = 0, realtime_state_bytes = 0,
                defense_state_bytes = 0;
  std::uint64_t defense_refreshes = 0, defense_rounds = 0,
                defense_full = 0;
  std::size_t batches = 0;
};

class Bench {
 public:
  Bench(Workload w, std::string root)
      : w_(std::move(w)), root_(std::move(root)),
        options_(detector_options(w_)), events_(make_stream(w_)),
        schedule_(make_schedule(w_, events_)) {}

  const std::vector<osn::Event>& events() const { return events_; }
  const Schedule& schedule() const { return schedule_; }
  const core::DetectorOptions& options() const { return options_; }
  perfbench::SpanRecorder& spans() { return spans_; }

  void set_reference(Reference ref) { reference_ = ref; }

  service::ShardRouterOptions router_options(const std::string& dir) {
    service::ShardRouterOptions o;
    o.shards = w_.shards;
    o.shard.detector = options_;
    o.shard.dir = dir;
    o.shard.wal_fsync = w_.fsync;
    o.shard.checkpoint_every = w_.checkpoint_every;
    o.shard.vfs = &vfs_;
    return o;
  }

  Cycle run_cycle(std::uint64_t index, bool traced);

 private:
  double one_setup(const std::string& dir);

  Workload w_;
  std::string root_;
  core::DetectorOptions options_;
  std::vector<osn::Event> events_;
  Schedule schedule_;
  Reference reference_;
  perfbench::CountingVfs vfs_;
  perfbench::SpanRecorder spans_;
};

double Bench::one_setup(const std::string& dir) {
  const auto t0 = Clock::now();
  service::ShardRouter router(router_options(dir));
  router.start();
  return seconds_between(t0, Clock::now());
}

Cycle Bench::run_cycle(std::uint64_t index, bool traced) {
  Cycle c;
  c.traced = traced;
  spans_.set_enabled(traced);
  const std::string dir = root_ + "/cycle-" + std::to_string(index);
  fs::remove_all(dir);
  const std::uint64_t group_base = index << 32;
  ScopedSpan cycle_span(spans_, "cycle", group_base);

  // Set-ups run on a settled filesystem and a trimmed heap: the previous
  // cycle's deletions and frees would otherwise land inside them, costs a
  // freshly started service never sees.
  perfbench::settle_filesystem(root_);
  perfbench::reset_peak_rss();
  for (int k = 0; k < kSetupsPerCycle; ++k) {
    const std::string sdir = dir + "-setup-" + std::to_string(k);
    c.extra_setup_s.push_back(one_setup(sdir));
    fs::remove_all(sdir);
  }
  const long baseline_kb = perfbench::current_rss_kb();
  const perfbench::IoCounts io0 = vfs_.counts();

  auto t0 = Clock::now();
  auto router = std::make_unique<service::ShardRouter>(router_options(dir));
  {
    ScopedSpan s(spans_, "setup", group_base);
    router->start();
  }
  c.setup_s = seconds_between(t0, Clock::now());

  std::vector<core::FlagRecord> flagged;
  const auto take = [&](double newest) {
    core::FlagBatch batch = router->take_flagged();
    for (const core::FlagRecord& r : batch.records) {
      c.lags_h.push_back(newest - r.flagged_at);
      flagged.push_back(r);
    }
  };

  const std::span<const osn::Event> all(events_);
  const std::size_t batches = schedule_.sweep.size();
  c.batches = batches;
  c.batch_ms.reserve(batches);
  std::vector<double> offer_s(traced ? batches : 0);
  std::vector<char> ckpt_batch(traced ? batches : 0);
  const auto stream_t0 = Clock::now();
  for (std::size_t b = 0; b < batches; ++b) {
    const std::size_t base = b * kBatch;
    const std::size_t n = std::min(kBatch, all.size() - base);
    const std::uint64_t group = group_base | b;
    const auto tb = Clock::now();
    {
      ScopedSpan batch_span(spans_, "batch", group);
      if (traced) {
        const std::uint64_t ck0 = vfs_.counts().checkpoints;
        const auto ta = Clock::now();
        {
          ScopedSpan s(spans_, "router.offer_batch", group);
          router->offer_batch(all.subspan(base, n), base);
        }
        offer_s[b] = seconds_between(ta, Clock::now());
        ckpt_batch[b] = vfs_.counts().checkpoints != ck0;
      } else {
        router->offer_batch(all.subspan(base, n), base);
      }
      {
        ScopedSpan s(spans_, "supervisor.pump", group);
        router->pump();
      }
      if (schedule_.sweep[b]) {
        {
          ScopedSpan s(spans_, "stream_detector.sweep", group);
          router->sweep_flags(schedule_.newest[b]);
        }
        ScopedSpan s(spans_, "router.take_flagged", group);
        take(schedule_.newest[b]);
      }
    }
    c.batch_ms.push_back(seconds_between(tb, Clock::now()) * 1e3);
    if (traced) {
      std::uint64_t buffered = 0;
      for (std::uint32_t i = 0; i < router->shards(); ++i) {
        buffered += router->shard(i).detector().buffered();
      }
      c.reorder_peak = std::max(c.reorder_peak, buffered);
    }
  }
  {
    ScopedSpan s(spans_, "stream_detector.flush", group_base | batches);
    router->flush(false);
  }
  {
    ScopedSpan s(spans_, "stream_detector.final_sweep", group_base | batches);
    router->sweep_flags(schedule_.final_now);
    take(schedule_.newest.empty() ? 0.0 : schedule_.newest.back());
  }
  c.stream_s = seconds_between(stream_t0, Clock::now());
  c.io = vfs_.counts() - io0;
  c.flags = flagged.size();
  c.digest = perfbench::flag_digest(std::move(flagged));

  // Gate 1 + 2: flags equal the oracle's; accounting holds.
  if (c.digest != reference_.digest || c.flags != reference_.flags) {
    c.failure = "flag digest differs from the bare-detector reference";
  } else if (!router->accounting_ok()) {
    c.failure = "accounting identity violated before stop";
  }

  std::uint64_t shed = 0, deadlettered = 0, copies_max = 0;
  std::vector<std::string> before;
  for (std::uint32_t i = 0; i < router->shards(); ++i) {
    service::ServiceSupervisor& s = router->shard(i);
    shed += s.shed_total();
    deadlettered += s.detector().deadletter_total();
    copies_max = std::max(copies_max, s.offered());
    before.push_back(drop_fields(s.stats_json(), sweep_driven_fields()));
    if (traced) {
      ScopedSpan span(spans_, "checkpoint.serialize", group_base | batches);
      c.stream_state_bytes += core::serialize_stream_state(s.detector()).size();
      c.realtime_state_bytes +=
          core::serialize_realtime_state(s.realtime()).size();
      if (const service::DefenseScorer* d = s.defense()) {
        c.defense_state_bytes += d->serialize().size();
        c.defense_refreshes += d->refreshes();
        c.defense_rounds += d->rank().rounds_total();
        c.defense_full += d->rank().full_recomputes();
      }
    }
  }
  c.offers = router->offers();
  c.copies = router->copies_delivered();
  c.shard_skew = c.copies == 0 ? 0.0
                               : static_cast<double>(copies_max) *
                                     router->shards() /
                                     static_cast<double>(c.copies);
  c.served_ratio =
      c.copies == 0 ? 0.0
                    : 1.0 - static_cast<double>(shed + deadlettered) /
                                static_cast<double>(c.copies);

  {
    ScopedSpan s(spans_, "stop", group_base | batches);
    router.reset();
  }

  // Restart on the same root: back where it stopped once start() has
  // recovered and flush(false) has re-applied the replayed suffix.
  const auto tr = Clock::now();
  std::uint64_t replayed = 0;
  {
    ScopedSpan s(spans_, "recovery.start", group_base | batches);
    router = std::make_unique<service::ShardRouter>(router_options(dir));
    for (const service::RecoveryReport& r : router->start().shards) {
      replayed += r.records_replayed;
    }
  }
  const auto tm = Clock::now();
  {
    ScopedSpan s(spans_, "recovery.catchup", group_base | batches);
    router->flush(false);
  }
  const auto te = Clock::now();
  c.recovery_s = seconds_between(tr, te);
  c.recovery_start_s = seconds_between(tr, tm);
  c.recovery_catchup_s = seconds_between(tm, te);
  c.records_replayed = replayed;
  c.rss_growth_mb =
      perfbench::rss_growth_mb(perfbench::peak_rss_kb(), baseline_kb);

  // Gate 3: the restart reproduces every replay-exact counter.
  if (c.failure.empty() && !router->accounting_ok()) {
    c.failure = "accounting identity violated after restart";
  }
  for (std::uint32_t i = 0; c.failure.empty() && i < router->shards(); ++i) {
    const std::string after =
        drop_fields(router->shard(i).stats_json(), sweep_driven_fields());
    if (after != before[i]) {
      c.failure = "shard " + std::to_string(i) +
                  " counters differ after restart: " + before[i] + " vs " +
                  after;
    }
  }
  if (traced) {
    ScopedSpan s(spans_, "checkpoint.load", group_base | batches);
    const auto tl = Clock::now();
    for (std::uint32_t i = 0; i < router->shards(); ++i) {
      char name[16];
      std::snprintf(name, sizeof(name), "shard-%04u", i);
      const auto gens = service::list_checkpoints(dir + "/" + name + "/ckpt");
      if (!gens.empty()) service::load_service_checkpoint(gens.back().second);
    }
    c.checkpoint_load_s = seconds_between(tl, Clock::now());
  }
  router.reset();
  if (!c.failure.empty()) c.served_ratio = 0.0;

  fs::remove_all(dir);

  if (traced) {
    // Layer totals from this cycle's spans; the checkpoint cost is what
    // the committing batches' offer_batch took beyond a typical batch.
    std::vector<double> plain;
    for (std::size_t b = 0; b < batches; ++b) {
      if (!ckpt_batch[b]) plain.push_back(offer_s[b]);
    }
    const double typical = perfbench::median(plain);
    for (std::size_t b = 0; b < batches; ++b) {
      if (ckpt_batch[b]) c.checkpoint_save_s += offer_s[b] - typical;
    }
  }
  return c;
}

void fill_layer_times(Cycle& c, const std::vector<perfbench::Span>& spans) {
  const auto total = perfbench::total_seconds(spans);
  const auto get = [&](const char* k) {
    const auto it = total.find(k);
    return it == total.end() ? 0.0 : it->second;
  };
  c.offer_s = get("router.offer_batch");
  c.pump_s = get("supervisor.pump");
  c.sweep_s = get("stream_detector.sweep") + get("stream_detector.final_sweep");
  c.flush_s = get("stream_detector.flush");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string state_dir;
  std::string trace_out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "ingest-1shard|durable-4shard|defense-sweep --seed N "
               "--seconds S --trace 0|1 --state-dir DIR [--trace-out FILE]\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--state-dir") a.state_dir = v;
      else if (flag == "--trace-out") a.trace_out = v;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.state_dir.empty()) usage("--state-dir is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  return a;
}

std::string metric(const char* name, double value, const char* unit) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "\"%s\":{\"value\":%.10g,\"unit\":\"%s\"}",
                name, value, unit);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc's adaptive one makes peak RSS depend
  // on the order of earlier frees rather than on the workload.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  const Args args = parse(argc, argv);
  Workload w = make_workload(args.workload);
  if (w.name == nullptr) usage(("unknown workload " + args.workload).c_str());
  w.stream.seed = args.seed;

  // The service reads both knobs from the environment, once.
  ::setenv("SYBIL_THREADS", std::to_string(w.threads).c_str(), 1);
  ::setenv("SYBIL_IO_FSYNC", w.io_fsync ? "1" : "0", 1);

  fs::create_directories(args.state_dir);
  std::printf("fingerprint: %s\n",
              perfbench::machine_fingerprint(args.state_dir).c_str());
  std::printf("workload: %s shards=%u threads=%d accounts=%u events=%llu "
              "hours=%g burst_senders=%u burst_fraction=%g jitter_h=%g "
              "fsync=%s checkpoint_every=%llu defense=%s seed=%llu\n",
              w.name, w.shards, w.threads, w.stream.accounts,
              static_cast<unsigned long long>(w.stream.events), w.stream.hours,
              w.stream.burst_senders, w.stream.burst_fraction, w.jitter_hours,
              w.fsync == service::WalFsync::kEveryAppend
                  ? "always(counted,not-issued)"
                  : "never",
              static_cast<unsigned long long>(w.checkpoint_every),
              w.defense ? "on" : "off",
              static_cast<unsigned long long>(args.seed));

  const auto run_t0 = Clock::now();
  Bench bench(w, args.state_dir);
  std::printf("stream: events=%zu batches=%zu digest=%016llx\n",
              bench.events().size(), bench.schedule().sweep.size(),
              static_cast<unsigned long long>(
                  perfbench::stream_digest(bench.events())));
  const Reference ref =
      reference_flags(bench.options(), bench.events(), bench.schedule());
  bench.set_reference(ref);
  std::printf("reference: flags=%zu digest=%016llx\n", ref.flags,
              static_cast<unsigned long long>(ref.digest));
  std::fflush(stdout);

  std::vector<Cycle> cycles;
  std::uint64_t attempted = 0, failed = 0;
  const auto account = [&](const Cycle& c) {
    ++attempted;
    if (!c.failure.empty()) {
      ++failed;
      std::printf("cycle FAILED: %s\n", c.failure.c_str());
    }
  };
  // The vCPUs of a shared host run at very different speeds, and a
  // single-threaded run would otherwise take the speed of whichever one
  // it lands on: move it over all of them, a slice at a time.
  std::optional<perfbench::CpuRotator> rotator;
  if (w.threads == 1) rotator.emplace(std::chrono::milliseconds(50));
  const auto measure_t0 = Clock::now();
  double longest = 0.0;
  for (std::uint64_t i = 1;; ++i) {
    const double spent = seconds_between(measure_t0, Clock::now());
    const double total = seconds_between(run_t0, Clock::now());
    // A traced run needs one traced and one untraced cycle at least.
    const int need = args.trace ? 2 : kMinCycles;
    if (static_cast<int>(cycles.size()) >= need && spent >= args.seconds) break;
    if (!cycles.empty() && total + longest > kHardBudgetS) break;
    // Traced runs alternate traced and untraced cycles.
    const bool traced = args.trace && (i % 2 == 1);
    const std::size_t from = bench.spans().spans().size();
    const auto tc = Clock::now();
    Cycle c;
    try {
      c = bench.run_cycle(i, traced);
    } catch (const std::exception& e) {
      // A service error fails the cycle like a broken gate does.
      ++attempted;
      ++failed;
      std::printf("cycle FAILED: %s\n", e.what());
      break;
    }
    longest = std::max(longest, seconds_between(tc, Clock::now()));
    if (traced) fill_layer_times(c, bench.spans().since(from));
    account(c);
    std::printf("cycle %llu%s: stream %.4f s, recovery %.4f s, setup %.6f s, "
                "rss +%.1f MB, batch p50 %.4f ms, setup median %.6f s\n",
                static_cast<unsigned long long>(i), traced ? " (traced)" : "",
                c.stream_s, c.recovery_s, c.setup_s, c.rss_growth_mb,
                perfbench::percentile(c.batch_ms, 0.5).value,
                perfbench::median(c.extra_setup_s));
    cycles.push_back(std::move(c));
  }
  rotator.reset();
  fs::remove_all(args.state_dir);

  // Deterministic counts must repeat exactly across cycles.
  for (const Cycle& c : cycles) {
    if (c.lags_h != cycles.front().lags_h ||
        c.io.total_bytes() != cycles.front().io.total_bytes() ||
        c.records_replayed != cycles.front().records_replayed) {
      std::printf("cycle FAILED: deterministic counts differ across cycles\n");
      ++failed;
      break;
    }
  }

  std::vector<const Cycle*> timed;   // cycles the metrics come from
  std::vector<const Cycle*> plain;   // untraced cycles
  for (const Cycle& c : cycles) {
    if (c.traced == args.trace) timed.push_back(&c);
    if (!c.traced) plain.push_back(&c);
  }
  if (timed.empty()) {
    std::fprintf(stderr, "perfbench: no cycle completed\n");
    return 1;
  }
  const Cycle& last = *timed.back();
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const Cycle* c : timed) v.push_back(field(*c));
    return perfbench::median(v);
  };
  const double events_n = static_cast<double>(bench.events().size());

  std::string metrics;
  const auto add = [&](const std::string& m) {
    if (!metrics.empty()) metrics += ',';
    metrics += m;
  };
  if (!args.trace) {
    // p50: the median of the cycles' medians; p99: over the pooled
    // batches of the run, so that ten samples lie beyond it.
    std::vector<double> batch_ms, cycle_p50, setups;
    for (const Cycle* c : timed) {
      batch_ms.insert(batch_ms.end(), c->batch_ms.begin(), c->batch_ms.end());
      cycle_p50.push_back(perfbench::percentile(c->batch_ms, 0.5).value);
      setups.push_back(c->setup_s);
      setups.insert(setups.end(), c->extra_setup_s.begin(),
                    c->extra_setup_s.end());
    }
    const perfbench::Percentile p99 = perfbench::percentile(batch_ms, 0.99);
    const perfbench::Percentile l50 = perfbench::percentile(last.lags_h, 0.50);
    const perfbench::Percentile l99 = perfbench::percentile(last.lags_h, 0.99);
    std::printf("samples: cycles=%zu batch_ms n=%zu p99 beyond=%zu%s "
                "detect_lag n=%zu p99 beyond=%zu%s setups=%zu\n",
                timed.size(), p99.samples, p99.beyond,
                p99.reportable() ? "" : " (UNDER TEN)", l99.samples,
                l99.beyond, l99.reportable() ? "" : " (UNDER TEN)",
                setups.size());
    add(metric("events_per_s",
               med([&](const Cycle& c) { return events_n / c.stream_s; }),
               "events/s"));
    add(metric("batch_ms_p50", perfbench::median(cycle_p50), "ms"));
    add(metric("batch_ms_p99", p99.value, "ms"));
    add(metric("detect_lag_h_p50", l50.value, "h"));
    add(metric("detect_lag_h_p99", l99.value, "h"));
    add(metric("bytes_per_event",
               static_cast<double>(last.io.total_bytes()) / events_n,
               "B/event"));
    add(metric("peak_rss_mb", med([](const Cycle& c) { return c.rss_growth_mb; }),
               "MB"));
    add(metric("recovery_s", med([](const Cycle& c) { return c.recovery_s; }),
               "s"));
    add(metric("setup_s", perfbench::median(setups), "s"));
    add(metric("served_ratio",
               failed > 0 ? 0.0
                          : med([](const Cycle& c) { return c.served_ratio; }),
               "ratio"));
  } else {
    const double batches = static_cast<double>(last.batches);
    add(metric("router.offer_batch_s", med([](const Cycle& c) { return c.offer_s; }), "s"));
    add(metric("router.copies_per_event",
               static_cast<double>(last.copies) / static_cast<double>(last.offers),
               "copies/event"));
    add(metric("router.shard_skew", last.shard_skew, "ratio"));
    add(metric("wal.bytes_per_event",
               static_cast<double>(last.io.wal_bytes) / events_n, "B/event"));
    add(metric("wal.fsyncs_per_batch",
               static_cast<double>(last.io.wal_fsyncs) / batches, "fsync/batch"));
    add(metric("supervisor.pump_s", med([](const Cycle& c) { return c.pump_s; }), "s"));
    add(metric("stream_detector.flush_s", med([](const Cycle& c) { return c.flush_s; }), "s"));
    add(metric("stream_detector.reorder_peak",
               static_cast<double>(last.reorder_peak), "events"));
    add(metric("stream_detector.sweep_s", med([](const Cycle& c) { return c.sweep_s; }), "s"));
    add(metric("stream_detector.flags", static_cast<double>(last.flags), "count"));
    add(metric("checkpoint.save_s",
               med([](const Cycle& c) { return c.checkpoint_save_s; }), "s"));
    add(metric("checkpoint.count", static_cast<double>(last.io.checkpoints), "count"));
    add(metric("checkpoint.bytes", static_cast<double>(last.io.checkpoint_bytes), "B"));
    add(metric("checkpoint.stream_state_bytes",
               static_cast<double>(last.stream_state_bytes), "B"));
    add(metric("checkpoint.realtime_state_bytes",
               static_cast<double>(last.realtime_state_bytes), "B"));
    add(metric("checkpoint.defense_state_bytes",
               static_cast<double>(last.defense_state_bytes), "B"));
    add(metric("recovery.start_s", med([](const Cycle& c) { return c.recovery_start_s; }), "s"));
    add(metric("recovery.catchup_s",
               med([](const Cycle& c) { return c.recovery_catchup_s; }), "s"));
    add(metric("recovery.records_replayed",
               static_cast<double>(last.records_replayed), "count"));
    add(metric("recovery.checkpoint_load_s",
               med([](const Cycle& c) { return c.checkpoint_load_s; }), "s"));
    add(metric("defense.refreshes", static_cast<double>(last.defense_refreshes), "count"));
    add(metric("defense.rounds", static_cast<double>(last.defense_rounds), "count"));
    add(metric("defense.full_recompute_ratio",
               last.defense_refreshes == 0
                   ? 0.0
                   : static_cast<double>(last.defense_full) /
                         static_cast<double>(last.defense_refreshes),
               "ratio"));

    // Self time per layer over the traced cycles, and the overhead of
    // tracing against the untraced cycles of the same run.
    const auto self = perfbench::self_seconds(
        bench.spans().spans());
    double cycle_total = 0.0;
    for (const auto& [name, s] : self) cycle_total += s;
    std::printf("self time over %zu traced cycles (s, share):\n", timed.size());
    for (const auto& [name, s] : self) {
      std::printf("  %-30s %10.4f  %5.1f%%\n", name.c_str(), s,
                  cycle_total > 0 ? 100.0 * s / cycle_total : 0.0);
    }
    std::vector<double> traced_s, plain_s;
    for (const Cycle* c : timed) traced_s.push_back(c->stream_s);
    for (const Cycle* c : plain) plain_s.push_back(c->stream_s);
    const double untraced = perfbench::median(plain_s);
    std::printf("tracing overhead: stream %.4f s traced vs %.4f s untraced "
                "(%+.2f%%, medians of %zu and %zu cycles)\n",
                perfbench::median(traced_s), untraced,
                untraced > 0 ? 100.0 * (perfbench::median(traced_s) / untraced - 1.0)
                             : 0.0,
                traced_s.size(), plain_s.size());
    if (!args.trace_out.empty()) {
      bench.spans().write_jsonl(args.trace_out);
      std::printf("spans: %zu written to %s\n", bench.spans().spans().size(),
                  args.trace_out.c_str());
    }
  }

  std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{%s}}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}
