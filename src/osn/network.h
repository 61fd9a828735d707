// The simulated OSN: accounts + friendship graph + the friend-request
// state machine (send → pending → accept/reject/drop), with per-account
// ledgers and an optional event log.
//
// This is the substrate standing in for Renren's production system. The
// request mechanics matter for fidelity: requests are answered after a
// think-time delay, and banning an account drops its in-flight requests
// — which is exactly the censoring effect the paper observes in Fig 3
// (Sybils banned before they could answer all outstanding requests).
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "graph/graph.h"
#include "osn/account.h"
#include "osn/events.h"
#include "osn/ledger.h"

namespace sybil::osn {

enum class RequestResult : std::uint8_t {
  kSent,
  kInvalid,        // self-request or unknown id
  kDuplicate,      // already requested this target before
  kAlreadyFriends,
  kPartyBanned,    // sender or target is banned
};

class Network {
 public:
  explicit Network(bool keep_event_log = false)
      : keep_log_(keep_event_log) {}

  /// Registers an account; returns its node id.
  NodeId add_account(const Account& account, Time now = 0.0);

  std::size_t account_count() const noexcept { return accounts_.size(); }
  const Account& account(NodeId id) const { return accounts_.at(id); }
  Account& account(NodeId id) { return accounts_.at(id); }

  /// Seeds a pre-existing friendship directly (no request mechanics);
  /// used to install the established social graph the simulation window
  /// starts from. Returns false if the edge already exists.
  bool add_friendship(NodeId u, NodeId v, Time t);

  /// Sends a friend request from -> to at `now`; if it will be answered,
  /// the answer happens at `respond_at` (>= now). `tag` is carried with
  /// the request and handed back to the responder's decision procedure —
  /// the simulator uses it to mark how the target was selected (e.g.
  /// friend-of-friend vs stranger), which shapes acceptance.
  RequestResult send_request(NodeId from, NodeId to, Time now,
                             Time respond_at, std::uint8_t tag = 0);

  /// Target's decision procedure: return true to accept `requester`.
  using DecideFn =
      std::function<bool(NodeId target, NodeId requester, std::uint8_t tag)>;

  /// Answers every pending request due at or before `now` using `decide`.
  /// Requests involving banned parties are dropped unanswered. Returns
  /// the number of requests accepted.
  std::size_t process_responses(Time now, const DecideFn& decide);

  /// Bans an account: it stops acting and its in-flight requests are
  /// dropped (lazily, at response-processing time).
  void ban(NodeId who, Time now);

  const graph::TimestampedGraph& graph() const noexcept { return graph_; }
  const RequestLedger& ledger(NodeId id) const { return ledgers_.at(id); }
  const EventLog& log() const noexcept { return log_; }
  std::size_t pending_count() const noexcept { return pending_.size(); }

  /// All account ids of the given kind.
  std::vector<NodeId> ids_of_kind(AccountKind kind) const;

 private:
  struct Pending {
    Time respond_at;
    NodeId from;
    NodeId to;
    std::uint8_t tag;
    bool operator>(const Pending& other) const noexcept {
      return respond_at > other.respond_at;
    }
  };

  static std::uint64_t pair_key(NodeId from, NodeId to) noexcept {
    return (static_cast<std::uint64_t>(from) << 32) | to;
  }

  bool keep_log_;
  std::vector<Account> accounts_;
  std::vector<RequestLedger> ledgers_;
  graph::TimestampedGraph graph_;
  std::priority_queue<Pending, std::vector<Pending>, std::greater<>> pending_;
  std::unordered_set<std::uint64_t> requested_;  // all-time directed dedup
  EventLog log_;
};

}  // namespace sybil::osn
