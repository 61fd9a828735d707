// N-way sharded detection service: a ShardRouter hash-partitions the
// event stream by account id across N ServiceSupervisor shards, each
// owning its own WAL segments, checkpoint generations, recovery path
// and 3-tier degradation state (one overloaded shard sheds without
// dragging the others down).
//
// Cross-shard protocol. An event's feature effects decide who must see
// it (derived from the StreamDetector handlers; docs/ROBUSTNESS.md
// §Sharded recovery has the argument):
//
//   kAccountCreated                 → owner(actor) only
//   kRequestSent/Rejected/Dropped   → owner(actor) + owner(subject)
//                                     (double-delivery; one copy when
//                                     both parties hash to one shard)
//   kRequestAccepted/
//   kFriendshipSeeded               → every shard (edges feed the
//                                     clustering coefficient of third-
//                                     party watchers on any shard)
//   kAccountBanned                  → every shard (ban bits gate every
//                                     handler and are never shed)
//   unknown types                   → routed like a pair event and left
//                                     for each shard's dead-letter path
//
// With this routing the owner shard of any account X receives every
// event that can mutate X's state, in global (time, seq) order, so its
// per-account features and flag times are identical to a 1-shard run.
// Non-owner shards hold partial replicas and may spuriously flag
// accounts they do not own; take_flagged() keeps owner-shard records
// only and merges them in canonical (flagged_at, account) order, which
// is how the N-shard FlagBatch is byte-identical to the 1-shard one.
//
// Exactly-once across crashes: every delivered copy lands in the target
// shard's WAL with its global seq, so each shard's recovery exposes a
// redelivery frontier (RecoveryReport::next_seq). The router suppresses
// re-offered seqs below a shard's frontier, keeping per-shard WALs
// duplicate-free — replay determinism and the kill-at-every-storage-op
// sweep therefore hold *per shard*, with designed cross-shard copies
// accounted explicitly (copies_routed/delivered/suppressed).
//
// Accounting. Each shard keeps the PR 5 identity
//   offered == applied + deduped + deadlettered + buffered
//              + queued + shed
// and the router-aggregated identity is the sum over shards, where
// "offered" counts delivered copies, not unique events (fanout is
// reported separately, so unique-event math stays recoverable).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "service/supervisor.h"

namespace sybil::service {

/// Owning shard of an account id: splitmix64-mixed, then reduced mod
/// `shards`, so adjacent ids spread instead of striping.
std::uint32_t shard_of(graph::NodeId id, std::uint32_t shards) noexcept;

/// Allocation-free routing decision for one event: either a broadcast
/// to every shard, or up to two explicit targets (ascending, already
/// collapsed when both parties hash to one shard). This is the hot-path
/// form — route_shards() materializes the same set as a vector.
struct RoutePlan {
  bool broadcast = false;
  std::uint32_t count = 0;               // targets used when !broadcast
  std::array<std::uint32_t, 2> target{};
};

/// Computes where an event goes, without touching the heap. The per-
/// event dispatch (type switch + owner hashing) happens once here, so
/// a broadcast to N shards costs one plan, not N re-dispatches.
RoutePlan plan_route(const osn::Event& e, std::uint32_t shards) noexcept;

/// The shards an event is delivered to, ascending and deduplicated.
/// Exposed for tests and capacity planning; wraps plan_route().
std::vector<std::uint32_t> route_shards(const osn::Event& e,
                                        std::uint32_t shards);

struct ShardRouterOptions {
  /// Template for every shard. `dir` is the *root*: shard i lives in
  /// "<dir>/shard-<4 digits>". shard_id/shard_count are overwritten
  /// per shard.
  ServiceOptions shard{};
  std::uint32_t shards = 1;
  /// Shard-addressed storage backend: when set, shard i's supervisor
  /// runs every durable path through shard_vfs(i) instead of the
  /// template's `shard.vfs` — how the chaos orchestrator and the kill
  /// sweeps crash, fill or power-cut exactly one shard's disk while its
  /// peers stay clean. May return null (→ io::default_vfs()).
  std::function<io::Vfs*(std::uint32_t)> shard_vfs{};

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// What start() found: per-shard recovery outcomes plus the global
/// resume point.
struct RouterRecoveryReport {
  std::vector<RecoveryReport> shards;
  /// Resume the global stream here: the minimum shard frontier. Events
  /// at or past it may be missing from some shard; events below it are
  /// durable everywhere they were routed (re-offering them is harmless
  /// — every copy is suppressed).
  std::uint64_t next_seq = 0;
};

/// Per-offer outcome: how the copies fanned out.
struct RouteResult {
  std::uint32_t routed = 0;      // target shards for this event
  std::uint32_t delivered = 0;   // copies offered into a shard
  std::uint32_t suppressed = 0;  // copies dropped by a shard's frontier
  std::uint32_t admitted = 0;    // delivered copies that were not shed
  /// Copies addressed to a down shard and skipped. NOT part of `routed`
  /// (or the routed == delivered + suppressed identity): a down shard's
  /// copies are owed, not routed, and the re-drive after restart_shard
  /// delivers them.
  std::uint32_t skipped_down = 0;
};

class ShardRouter {
 public:
  /// Validates options and builds the shards; no I/O until start().
  explicit ShardRouter(const ShardRouterOptions& options);
  ~ShardRouter();
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Recovers every shard (checkpoint + WAL replay each) and opens the
  /// per-shard WALs. Refuses a root holding shard directories at or
  /// past `shards` — resharding is not a restart, it needs a migration.
  RouterRecoveryReport start();

  /// Routes one event. `seq` must be an explicit global stream seq
  /// (below kExplicitSeqLimit); offers must replay the same (event,
  /// seq) pairs in the same order after any rewind — at-least-once
  /// upstream, exactly-once per shard via the frontiers.
  RouteResult offer(const osn::Event& e, std::uint64_t seq);

  /// Routes a contiguous run of the global stream: events[i] carries
  /// seq base_seq + i. Equivalent to offering each in order, except
  /// that every shard's WAL appends for the batch are group-committed
  /// — ONE fsync per touched shard instead of one per copy (the
  /// dominant cost under WalFsync::kEveryAppend). The batch's
  /// durability boundary is the commit at the end (one WAL group
  /// commit per shard, ascending); callers must not
  /// acknowledge the batch upstream before this returns. Verdicts,
  /// accounting and the resulting detector state are identical to the
  /// per-event path. Returns the summed RouteResult.
  RouteResult offer_batch(std::span<const osn::Event> events,
                          std::uint64_t base_seq);

  /// Drains up to `max_per_shard` events into each shard's detector
  /// (0 = all). With multiple shards the drains run on the deterministic
  /// parallel layer, one fixed lane per shard — shard state is disjoint
  /// and this path crosses no durability boundary, so the result is
  /// identical to the serial drain for any SYBIL_THREADS. Down shards
  /// are skipped. Returns the total pumped.
  std::size_t pump(std::size_t max_per_shard = 0);

  /// pump() cut at a global stream position instead of a count: drains
  /// each live shard's queue while the head's explicit seq is <=
  /// `seq_bound` (ServiceSupervisor::pump_through per shard, same
  /// parallel lanes as pump). Idempotent at a fixed bound — the chaos
  /// orchestrator's pump boundaries are defined this way so a
  /// recovered shard can be re-driven through the exact boundary
  /// sequence of an undisturbed run. Returns the total pumped.
  std::size_t pump_through(std::uint64_t seq_bound);

  /// Sweeps every shard (parallel per shard, like pump). Returns the
  /// total newly flagged, *before* ownership filtering (non-owner
  /// replicas may flag accounts the merge later drops).
  std::size_t sweep_flags(graph::Time now);

  /// Checkpoints every shard at its current WAL position.
  void checkpoint_now();

  /// Pumps and finishes every shard; checkpoints unless told not to.
  void flush(bool checkpoint = true);

  /// Owner-filtered, canonically merged flags: each shard's drained
  /// records are kept only where shard_of(account) owns them, then the
  /// union is sorted by (flagged_at, account) — a total order, since an
  /// account flags at most once globally after filtering.
  core::FlagBatch take_flagged();

  /// Takes shard `i` out of service, destroying its supervisor — the
  /// in-process analogue of the shard's host dying. Buffered WAL bytes
  /// flush on close unless the shard's vfs is dead: after an
  /// io::FaultyVfs process crash they die with the process, as under
  /// kill -9 (reboot the vfs only after mark_down). While down: copies routed to it are skipped
  /// and counted in copies_skipped_down() (owed, not routed — the
  /// routed == delivered + suppressed identity keeps holding on the
  /// live fleet), pump/sweep/checkpoint/flush/take_flagged ignore it,
  /// accounting_ok() checks only live shards, and next_seq() is NOT a
  /// valid resume point (the dead shard's frontier entry is its last
  /// in-memory value, which can overstate what is durable) — call
  /// restart_shard(i) first. A caller that keeps offering live traffic
  /// while a shard is down MUST, when a crash unwinds mid-offer,
  /// re-offer the interrupted (event, seq) before any later seq:
  /// lower-indexed shards already hold that seq, and advancing past it
  /// would strand it below their frontiers forever (the min-frontier
  /// contract assumes each seq is offered until every live target has
  /// it). Typically invoked after a fatal io::VfsError (a process
  /// crash or power cut) unwinds out of offer().
  void mark_down(std::uint32_t i);
  bool is_down(std::uint32_t i) const;
  std::uint32_t down_count() const noexcept;
  std::uint64_t copies_skipped_down() const noexcept {
    return copies_skipped_down_;
  }

  /// Replaces shard `i` with a fresh supervisor recovered from its own
  /// directory — the single-shard crash path (clears the down state if
  /// mark_down(i) preceded it). The caller must then re-drive the
  /// global stream from the *router's* next_seq() (the minimum
  /// frontier, not the restarted shard's: the crash may have left a
  /// later-ordered shard missing a seq the victim already made
  /// durable). Every shard's frontier suppresses copies it has. Safe
  /// to call repeatedly on the same shard across one stream — the
  /// frontier math never assumes shards recover together (regression-
  /// tested with one shard restarted twice mid-stream).
  RecoveryReport restart_shard(std::uint32_t i);

  /// Global redelivery frontier: the minimum shard frontier. Re-driving
  /// the stream from here reaches every missing copy; everything below
  /// it is durable wherever it was routed. Only meaningful with no
  /// shard down (see mark_down).
  std::uint64_t next_seq() const noexcept;

  std::uint32_t shards() const noexcept {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Throws std::logic_error for a down shard (there is no supervisor
  /// to hand out until restart_shard brings one back).
  ServiceSupervisor& shard(std::uint32_t i);
  const ServiceSupervisor& shard(std::uint32_t i) const;
  std::uint32_t owner_of(graph::NodeId id) const noexcept {
    return shard_of(id, static_cast<std::uint32_t>(shards_.size()));
  }

  std::uint64_t offers() const noexcept { return offers_; }
  std::uint64_t copies_routed() const noexcept { return copies_routed_; }
  std::uint64_t copies_delivered() const noexcept { return copies_delivered_; }
  std::uint64_t copies_suppressed() const noexcept {
    return copies_suppressed_;
  }

  /// Every shard's identity, plus the router-aggregated one, plus
  /// frontier consistency (frontier[i] == shard i's next_seq).
  bool accounting_ok() const noexcept;

  /// Canonical JSON: {"shards":N,"offers":...,"copies":{...},
  /// "aggregate":{summed replay-exact counters},"per_shard":[...]}.
  /// Deterministic for any SYBIL_THREADS, like the per-shard JSON it
  /// embeds.
  std::string stats_json() const;

 private:
  ServiceOptions shard_options(std::uint32_t i) const;
  /// Runs `per_shard` on every live shard, one parallel lane each, and
  /// sums the results (pump, pump_through and sweep_flags).
  template <typename PerShard>
  std::size_t fan_out(PerShard per_shard);
  void deliver(std::uint32_t i, const osn::Event& e, std::uint64_t seq,
               RouteResult& result);
  void route_one(const osn::Event& e, std::uint64_t seq,
                 RouteResult& result);

  ShardRouterOptions options_;
  std::vector<std::unique_ptr<ServiceSupervisor>> shards_;
  /// Per-shard redelivery frontier (mirrors each shard's next_seq()).
  std::vector<std::uint64_t> frontier_;
  /// 1 where mark_down() killed the shard (shards_[i] is null there).
  std::vector<unsigned char> down_;
  /// offer_batch scratch: 1 where shard i has an open WAL commit group
  /// (opened lazily at its first delivered copy of the batch).
  std::vector<unsigned char> group_open_;
  bool in_batch_ = false;
  bool started_ = false;

  std::uint64_t offers_ = 0;
  std::uint64_t copies_routed_ = 0;
  std::uint64_t copies_delivered_ = 0;
  std::uint64_t copies_suppressed_ = 0;
  std::uint64_t copies_skipped_down_ = 0;
};

}  // namespace sybil::service
