#include "service/router.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "core/parallel.h"

namespace sybil::service {

namespace fs = std::filesystem;

namespace {

constexpr std::uint32_t kMaxShards = 4096;

std::string shard_dir_name(std::uint32_t i) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "shard-%04u", i);
  return buf;
}

}  // namespace

std::uint32_t shard_of(graph::NodeId id, std::uint32_t shards) noexcept {
  if (shards <= 1) return 0;
  // splitmix64 finalizer: adjacent account ids land on unrelated shards,
  // so id-assignment patterns in a feed cannot stripe one shard.
  std::uint64_t x = static_cast<std::uint64_t>(id) + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::uint32_t>(x % shards);
}

RoutePlan plan_route(const osn::Event& e, std::uint32_t shards) noexcept {
  RoutePlan plan;
  switch (e.type) {
    case osn::EventType::kAccountCreated:
      plan.count = 1;
      plan.target[0] = shard_of(e.actor, shards);
      break;
    case osn::EventType::kRequestAccepted:
    case osn::EventType::kFriendshipSeeded:
    case osn::EventType::kAccountBanned:
      // Edge-creating events update the clustering coefficient of
      // third-party watchers on any shard; ban bits gate every handler.
      // Both are global dependencies: broadcast.
      plan.broadcast = true;
      break;
    default: {
      // Two-party events (and unknown types, which each shard's
      // dead-letter path will classify): double-delivery to both
      // owners, collapsed to one copy on a shared shard.
      const std::uint32_t a = shard_of(e.actor, shards);
      const std::uint32_t b = shard_of(e.subject, shards);
      plan.target[0] = std::min(a, b);
      plan.target[1] = std::max(a, b);
      plan.count = a == b ? 1 : 2;
      break;
    }
  }
  return plan;
}

void ShardRouterOptions::validate() const {
  if (shards == 0 || shards > kMaxShards) {
    throw std::invalid_argument(
        "ShardRouterOptions::shards must be in [1, " +
        std::to_string(kMaxShards) + "]");
  }
  shard.validate();  // template itself must be coherent (dir etc.)
}

ShardRouter::ShardRouter(const ShardRouterOptions& options)
    : options_((options.validate(), options)) {
  shards_.reserve(options_.shards);
  for (std::uint32_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<ServiceSupervisor>(shard_options(i)));
  }
  down_.assign(options_.shards, 0);
}

ShardRouter::~ShardRouter() = default;

ServiceOptions ShardRouter::shard_options(std::uint32_t i) const {
  ServiceOptions o = options_.shard;
  o.dir = options_.shard.dir + "/" + shard_dir_name(i);
  o.shard_id = i;
  o.shard_count = options_.shards;
  if (options_.shard_vfs) o.vfs = options_.shard_vfs(i);
  return o;
}

RouterRecoveryReport ShardRouter::start() {
  if (started_) throw std::logic_error("ShardRouter::start called twice");
  // A root holding state for shards this router was not configured with
  // means the partition count changed: hash ownership moved, and every
  // shard would silently replay the wrong slice. Fail before any I/O.
  if (fs::exists(options_.shard.dir)) {
    for (const auto& entry : fs::directory_iterator(options_.shard.dir)) {
      const std::string name = entry.path().filename().string();
      if (name.size() != 10 || name.rfind("shard-", 0) != 0) continue;
      const std::string digits = name.substr(6);
      if (digits.find_first_not_of("0123456789") != std::string::npos) {
        continue;
      }
      if (std::stoul(digits) >= options_.shards) {
        throw std::runtime_error(
            "service root " + options_.shard.dir + " contains " + name +
            " but the router is configured with " +
            std::to_string(options_.shards) +
            " shards; resharding requires a migration, not a restart");
      }
    }
  }
  RouterRecoveryReport report;
  report.shards.reserve(shards_.size());
  for (auto& s : shards_) report.shards.push_back(s->start());
  started_ = true;
  report.next_seq = next_seq();
  // A shard at the minimum frontier logged seq F - 1, and with it the
  // clock the re-drive from F continues.
  head_ = report.next_seq;
  for (const auto& s : shards_) {
    if (s->next_seq() == head_) clock_ = s->clock();
  }
  return report;
}

void ShardRouter::advance_clock(const osn::Event& e, std::uint64_t seq) {
  core::StreamErrorCode reason;
  const bool counts = core::StreamDetector::structurally_valid(
      e, options_.shard.detector.ingest, reason);
  if (seq >= head_) {
    if (counts && e.time > clock_) clock_ = e.time;
    head_ = seq + 1;
  }
  for (auto c = catchup_.begin(); c != catchup_.end();) {
    if (seq >= c->next) {
      if (counts && e.time > c->clock) c->clock = e.time;
      c->next = seq + 1;
    }
    c = c->next >= head_ ? catchup_.erase(c) : c + 1;
  }
}

graph::Time ShardRouter::stamp_for(std::uint32_t i) const noexcept {
  for (const Catchup& c : catchup_) {
    if (c.shard == i) return c.clock;
  }
  return clock_;
}

void ShardRouter::deliver(std::uint32_t i, const osn::Event& e,
                          std::uint64_t seq, RouteResult& result) {
  if (down_[i]) {
    // Owed, not routed: a dead shard has no frontier, so neither leg of
    // the routed == delivered + suppressed identity can honestly claim
    // this copy. The post-restart re-drive delivers it.
    ++copies_skipped_down_;
    ++result.skipped_down;
    return;
  }
  if (seq < shards_[i]->next_seq()) {
    // Already logged on this shard — durable from a previous process
    // lifetime, or buffered before an unwound batch: redelivery is the
    // upstream at-least-once contract doing its job.
    ++copies_routed_;
    ++result.routed;
    ++copies_suppressed_;
    ++result.suppressed;
    return;
  }
  // Account the copy only after the shard's offer returns: a delivery
  // whose offer throws (a crash at a checkpoint inside it, a full
  // degraded buffer) never happened — the resume re-drives it — so the
  // copies identity survives an unwind through here.
  const bool admitted = shards_[i]->offer(e, seq, stamp_for(i));
  ++copies_routed_;
  ++result.routed;
  ++copies_delivered_;
  ++result.delivered;
  if (admitted) ++result.admitted;
}

RouteResult ShardRouter::offer(const osn::Event& e, std::uint64_t seq) {
  return offer_batch({&e, 1}, seq);
}

RouteResult ShardRouter::offer_batch(std::span<const osn::Event> events,
                                     std::uint64_t base_seq) {
  if (base_seq >= kExplicitSeqLimit ||
      events.size() > kExplicitSeqLimit - base_seq) {
    throw std::invalid_argument(
        "ShardRouter::offer_batch requires explicit global seqs (auto "
        "seqs cannot define a redelivery frontier)");
  }
  RouteResult result;
  const auto n = static_cast<std::uint32_t>(shards_.size());
  for (std::size_t k = 0; k < events.size(); ++k) {
    ++offers_;
    const osn::Event& e = events[k];
    advance_clock(e, base_seq + k);
    const RoutePlan plan = plan_route(e, n);
    if (plan.broadcast) {
      for (std::uint32_t i = 0; i < n; ++i) {
        deliver(i, e, base_seq + k, result);
      }
    } else {
      for (std::uint32_t t = 0; t < plan.count; ++t) {
        deliver(plan.target[t], e, base_seq + k, result);
      }
    }
  }
  // Commit in ascending shard order: one WAL commit per shard, and a
  // deterministic storage-op order for the kill sweeps. A shard that
  // saw only suppressed copies has nothing pending and issues no I/O.
  // An exception above skips this: the batch's records stay buffered,
  // unacknowledged, and ride the next commit.
  for (auto& s : shards_) {
    if (s) s->commit();
  }
  return result;
}

template <typename PerShard>
std::size_t ShardRouter::fan_out(PerShard per_shard) {
  if (shards_.size() == 1 && shards_[0]) return per_shard(*shards_[0]);
  // One fixed lane (chunk) per shard: disjoint supervisor state, no
  // durability boundaries crossed, atomic metrics — so the result is
  // identical to the serial loop for any SYBIL_THREADS.
  std::vector<std::size_t> counts(shards_.size(), 0);
  core::parallel_for(
      shards_.size(),
      [&](const core::ChunkRange& c) {
        for (std::size_t i = c.begin; i < c.end; ++i) {
          if (shards_[i]) counts[i] = per_shard(*shards_[i]);
        }
      },
      /*grain=*/1);
  std::size_t n = 0;
  for (std::size_t k : counts) n += k;
  return n;
}

std::size_t ShardRouter::pump(std::size_t max_per_shard) {
  return fan_out(
      [max_per_shard](ServiceSupervisor& s) { return s.pump(max_per_shard); });
}

std::size_t ShardRouter::pump_through(std::uint64_t seq_bound) {
  return fan_out(
      [seq_bound](ServiceSupervisor& s) { return s.pump_through(seq_bound); });
}

std::size_t ShardRouter::sweep_flags(graph::Time now) {
  return fan_out([now](ServiceSupervisor& s) { return s.sweep_flags(now); });
}

void ShardRouter::checkpoint_now() {
  for (auto& s : shards_) {
    if (s) s->checkpoint_now();
  }
}

void ShardRouter::flush(bool checkpoint) {
  // The drains write nothing (at most they read a recovery's records
  // back from their own shard's WAL), so they run in the shard lanes;
  // the commits and checkpoints then run in ascending shard order, the
  // same storage ops in the same order as flushing one shard after
  // another.
  fan_out([](ServiceSupervisor& s) { return s.drain_to_end(); });
  for (auto& s : shards_) {
    if (s) s->flush(checkpoint);
  }
}

core::FlagBatch ShardRouter::take_flagged() {
  core::FlagBatch merged;
  const auto n = static_cast<std::uint32_t>(shards_.size());
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!shards_[i]) continue;
    core::FlagBatch batch = shards_[i]->take_flagged();
    for (const core::FlagRecord& r : batch.records) {
      // Non-owner replicas see only the slice of an account's history
      // that was routed to them; their flags are partial-evidence noise
      // by design. The owner shard saw everything — keep its verdicts.
      if (shard_of(r.account, n) == i) merged.records.push_back(r);
    }
  }
  std::sort(merged.records.begin(), merged.records.end(),
            [](const core::FlagRecord& a, const core::FlagRecord& b) {
              if (a.flagged_at != b.flagged_at) {
                return a.flagged_at < b.flagged_at;
              }
              return a.account < b.account;
            });
  return merged;
}

void ShardRouter::mark_down(std::uint32_t i) {
  if (i >= shards_.size()) {
    throw std::out_of_range("ShardRouter::mark_down: no such shard");
  }
  if (down_[i]) {
    throw std::logic_error("ShardRouter::mark_down: shard already down");
  }
  // The supervisor's destructor closes the WAL file, flushing any
  // buffered appends — the same bytes a dead host's page cache would
  // have drained.
  shards_[i].reset();
  down_[i] = 1;
}

bool ShardRouter::is_down(std::uint32_t i) const {
  if (i >= shards_.size()) {
    throw std::out_of_range("ShardRouter::is_down: no such shard");
  }
  return down_[i] != 0;
}

std::uint32_t ShardRouter::down_count() const noexcept {
  std::uint32_t n = 0;
  for (unsigned char d : down_) n += d;
  return n;
}

ServiceSupervisor& ShardRouter::shard(std::uint32_t i) {
  if (i < shards_.size() && !shards_[i]) {
    throw std::logic_error("ShardRouter::shard: shard is down");
  }
  return *shards_.at(i);
}

const ServiceSupervisor& ShardRouter::shard(std::uint32_t i) const {
  if (i < shards_.size() && !shards_[i]) {
    throw std::logic_error("ShardRouter::shard: shard is down");
  }
  return *shards_.at(i);
}

RecoveryReport ShardRouter::restart_shard(std::uint32_t i) {
  if (i >= shards_.size()) {
    throw std::out_of_range("ShardRouter::restart_shard: no such shard");
  }
  shards_[i] = std::make_unique<ServiceSupervisor>(shard_options(i));
  const RecoveryReport report = shards_[i]->start();
  down_[i] = 0;
  std::erase_if(catchup_, [i](const Catchup& c) { return c.shard == i; });
  if (report.next_seq < head_) {
    catchup_.push_back({i, report.next_seq, shards_[i]->clock()});
  }
  return report;
}

std::uint64_t ShardRouter::next_seq() const noexcept {
  std::uint64_t lowest = kExplicitSeqLimit;
  for (const auto& s : shards_) {
    if (s) lowest = std::min(lowest, s->next_seq());
  }
  return lowest;
}

bool ShardRouter::accounting_ok() const noexcept {
  if (copies_routed_ != copies_delivered_ + copies_suppressed_) return false;
  for (const auto& s : shards_) {
    // A down shard has no live state to check; its durable state is
    // re-audited by restart_shard's recovery. The live fleet's
    // identities must hold at every instant regardless.
    if (s && !s->accounting_ok()) return false;
  }
  return true;
}

std::string ShardRouter::stats_json() const {
  ServiceCounters counters;
  IngestTotals totals;
  for (const auto& s : shards_) {
    if (!s) continue;  // down shard: excluded from aggregates
    counters += s->counters();
    totals += s->ingest_totals();
  }

  std::string out = "{";
  append_field(out, "shards", shards_.size());
  append_field(out, "offers", offers_);
  out += ",\"copies\":{";
  append_field(out, "routed", copies_routed_);
  append_field(out, "delivered", copies_delivered_);
  append_field(out, "suppressed", copies_suppressed_);
  if (copies_skipped_down_ > 0) {
    append_field(out, "skipped_down", copies_skipped_down_);
  }
  out += '}';
  // Aggregate identity: counts *delivered copies*, so it is the exact
  // sum of the per-shard identities (cross-shard fanout is visible in
  // "copies" above, never silently folded away).
  out += ",\"aggregate\":{";
  append_accounting_json(out, counters, totals);
  out += '}';
  out += ",\"per_shard\":[";
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (i > 0) out += ',';
    out += shards_[i] ? shards_[i]->stats_json() : "{\"down\":true}";
  }
  out += "]}";
  return out;
}

}  // namespace sybil::service
