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

void append_field(std::string& out, const char* key, std::uint64_t value) {
  if (out.back() != '{') out += ',';
  out += '"';
  out += key;
  out += "\":";
  out += std::to_string(value);
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

std::vector<std::uint32_t> route_shards(const osn::Event& e,
                                        std::uint32_t shards) {
  const RoutePlan plan = plan_route(e, shards);
  std::vector<std::uint32_t> out;
  if (plan.broadcast) {
    out.resize(shards);
    for (std::uint32_t i = 0; i < shards; ++i) out[i] = i;
  } else {
    out.assign(plan.target.begin(), plan.target.begin() + plan.count);
  }
  return out;
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
  frontier_.assign(options_.shards, 0);
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
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    report.shards.push_back(shards_[i]->start());
    frontier_[i] = report.shards.back().next_seq;
  }
  report.next_seq = *std::min_element(frontier_.begin(), frontier_.end());
  started_ = true;
  return report;
}

void ShardRouter::deliver(std::uint32_t i, const osn::Event& e,
                          std::uint64_t seq, RouteResult& result) {
  if (down_[i]) {
    // Owed, not routed: the dead shard's frontier entry is stale, so
    // neither leg of the routed == delivered + suppressed identity can
    // honestly claim this copy. The post-restart re-drive delivers it.
    ++copies_skipped_down_;
    ++result.skipped_down;
    return;
  }
  if (seq < frontier_[i]) {
    // Already durable on this shard from a previous process lifetime:
    // redelivery is the upstream at-least-once contract doing its job.
    ++copies_routed_;
    ++result.routed;
    ++copies_suppressed_;
    ++result.suppressed;
    return;
  }
  if (in_batch_ && !group_open_[i]) {
    // Lazy group open: a shard that only sees suppressed copies never
    // opens (or pays the commit of) a group.
    shards_[i]->begin_offer_batch();
    group_open_[i] = 1;
  }
  // Account the copy only after the shard's offer returns: a delivery
  // that dies mid-WAL-append never happened (the resume re-drives it),
  // so the copies identity survives a crash unwinding through here.
  const bool admitted = shards_[i]->offer(e, seq);
  frontier_[i] = seq + 1;
  ++copies_routed_;
  ++result.routed;
  ++copies_delivered_;
  ++result.delivered;
  if (admitted) ++result.admitted;
}

void ShardRouter::route_one(const osn::Event& e, std::uint64_t seq,
                            RouteResult& result) {
  ++offers_;
  const auto n = static_cast<std::uint32_t>(shards_.size());
  const RoutePlan plan = plan_route(e, n);
  if (plan.broadcast) {
    for (std::uint32_t i = 0; i < n; ++i) deliver(i, e, seq, result);
  } else {
    for (std::uint32_t t = 0; t < plan.count; ++t) {
      deliver(plan.target[t], e, seq, result);
    }
  }
}

RouteResult ShardRouter::offer(const osn::Event& e, std::uint64_t seq) {
  if (seq >= kExplicitSeqLimit) {
    throw std::invalid_argument(
        "ShardRouter::offer requires an explicit global seq (auto seqs "
        "cannot define a redelivery frontier)");
  }
  RouteResult result;
  route_one(e, seq, result);
  return result;
}

RouteResult ShardRouter::offer_batch(std::span<const osn::Event> events,
                                     std::uint64_t base_seq) {
  if (base_seq + events.size() > kExplicitSeqLimit) {
    throw std::invalid_argument(
        "ShardRouter::offer_batch requires explicit global seqs (auto "
        "seqs cannot define a redelivery frontier)");
  }
  RouteResult result;
  if (group_open_.size() != shards_.size()) {
    group_open_.assign(shards_.size(), 0);
  }
  in_batch_ = true;
  try {
    for (std::size_t i = 0; i < events.size(); ++i) {
      route_one(events[i], base_seq + i, result);
    }
    in_batch_ = false;
    // Commit groups in ascending shard order: one fsync per touched
    // shard, and a deterministic storage-op order for the kill sweeps.
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      if (group_open_[i]) {
        group_open_[i] = 0;
        if (shards_[i]) shards_[i]->commit_offer_batch();
      }
    }
  } catch (...) {
    // A crash (injected or real) unwinding mid-batch leaves the open
    // groups unacknowledged; drop them without committing — exactly
    // the durability state recovery handles — so surviving shards go
    // back to per-record fsync until the stream is re-driven.
    in_batch_ = false;
    for (std::uint32_t i = 0; i < shards_.size(); ++i) {
      if (group_open_[i]) {
        group_open_[i] = 0;
        if (shards_[i]) shards_[i]->abort_offer_batch();
      }
    }
    throw;
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
  // The supervisor's destructor closes the WAL FILE*, flushing any
  // buffered appends — the same bytes a dead host's page cache would
  // have drained. An open batch group dies unacknowledged with it
  // (other shards' groups are untouched).
  if (i < group_open_.size()) group_open_[i] = 0;
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
  frontier_[i] = report.next_seq;
  down_[i] = 0;
  return report;
}

std::uint64_t ShardRouter::next_seq() const noexcept {
  return *std::min_element(frontier_.begin(), frontier_.end());
}

bool ShardRouter::accounting_ok() const noexcept {
  if (copies_routed_ != copies_delivered_ + copies_suppressed_) return false;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    // A down shard has no live state to check; its durable state is
    // re-audited by restart_shard's recovery. The live fleet's
    // identities must hold at every instant regardless.
    if (!shards_[i]) continue;
    if (!shards_[i]->accounting_ok()) return false;
    if (frontier_[i] != shards_[i]->next_seq()) return false;
  }
  return true;
}

std::string ShardRouter::stats_json() const {
  std::uint64_t offered = 0, admitted = 0, pumped = 0;
  std::uint64_t shed_low = 0, shed_sweep = 0, shed_cap = 0;
  std::uint64_t queued = 0, applied = 0, deduped = 0;
  std::uint64_t deadlettered = 0, dl_dropped = 0, buffered = 0;
  std::uint64_t banned_party = 0, flagged = 0, sweeps = 0, sweep_flagged = 0;
  std::uint64_t by_reason[core::kStreamErrorCodeCount] = {};
  for (const auto& s : shards_) {
    if (!s) continue;  // down shard: excluded from aggregates
    offered += s->offered();
    admitted += s->admitted();
    pumped += s->pumped();
    shed_low += s->shed_low_priority();
    shed_sweep += s->shed_sweep_only();
    shed_cap += s->shed_capacity();
    queued += s->queue_depth();
    applied += s->detector().applied_total();
    deduped += s->detector().deduped_total();
    deadlettered += s->detector().deadletter_total();
    dl_dropped += s->detector().dead_letters_dropped();
    buffered += s->detector().buffered();
    banned_party += s->detector().banned_party_total();
    flagged += s->detector().flagged_total();
    sweeps += s->sweeps();
    sweep_flagged += s->sweep_flagged();
    for (std::size_t r = 0; r < core::kStreamErrorCodeCount; ++r) {
      by_reason[r] +=
          s->detector().deadletter_by_reason(static_cast<core::StreamErrorCode>(r));
    }
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
  append_field(out, "offered", offered);
  append_field(out, "admitted", admitted);
  out += ",\"shed\":{";
  append_field(out, "low_priority", shed_low);
  append_field(out, "sweep_only", shed_sweep);
  append_field(out, "capacity", shed_cap);
  append_field(out, "total", shed_low + shed_sweep + shed_cap);
  out += '}';
  append_field(out, "queued", queued);
  append_field(out, "pumped", pumped);
  append_field(out, "applied", applied);
  append_field(out, "deduped", deduped);
  out += ",\"deadlettered\":{";
  append_field(out, "total", deadlettered);
  for (std::size_t r = 0; r < core::kStreamErrorCodeCount; ++r) {
    append_field(out, core::to_string(static_cast<core::StreamErrorCode>(r)),
                 by_reason[r]);
  }
  append_field(out, "dropped", dl_dropped);
  out += '}';
  append_field(out, "buffered", buffered);
  append_field(out, "banned_party", banned_party);
  append_field(out, "flagged_total", flagged);
  append_field(out, "sweeps", sweeps);
  append_field(out, "sweep_flagged", sweep_flagged);
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
