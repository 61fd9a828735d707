#include "osn/simulator.h"

#include <cmath>
#include <optional>
#include <span>
#include <stdexcept>

#include "core/metrics/instrument.h"

namespace sybil::osn {

GroundTruthSimulator::GroundTruthSimulator(GroundTruthConfig config)
    : config_(std::move(config)), rng_(config_.seed) {
  populate();
  seed_friendships();
  rebuild_popularity_index();
}

void GroundTruthSimulator::populate() {
  const auto add_normals = [&](std::uint32_t count,
                               std::vector<NodeId>* track) {
    for (std::uint32_t i = 0; i < count; ++i) {
      const NodeId id =
          net_.add_account(make_normal_account(config_.normal, 0.0, rng_));
      normal_ids_.push_back(id);
      if (track) track->push_back(id);
    }
  };
  add_normals(config_.background_users, nullptr);
  add_normals(config_.subject_normals, &subject_normals_);
  for (std::uint32_t i = 0; i < config_.subject_sybils; ++i) {
    const NodeId id =
        net_.add_account(make_sybil_account(config_.sybil, 0.0, rng_));
    subject_sybils_.push_back(id);
    sybil_ban_at_.push_back(rng_.uniform(config_.sybil.ban_after_min,
                                         config_.sybil.ban_after_max));
  }
}

void GroundTruthSimulator::seed_friendships() {
  // Pre-existing friendships among normal users only; Sybils are fresh
  // accounts. The seed graph's insertion order provides the chronological
  // "first 50 friends" prefix for normal subjects (Fig 4), with negative
  // timestamps marking the pre-window era.
  graph::OsnGraphParams params = config_.seed_graph;
  params.nodes = static_cast<graph::NodeId>(normal_ids_.size());
  stats::Rng seed_rng = rng_.fork();
  const graph::TimestampedGraph seed = osn_like_graph(params, seed_rng);
  const double span = std::max(1.0, static_cast<double>(seed.edge_count()));
  for (graph::NodeId u = 0; u < seed.node_count(); ++u) {
    for (const graph::Neighbor& nb : seed.neighbors(u)) {
      if (u < nb.node) {
        // Map insertion index to a negative pre-window timestamp.
        const Time t = -1.0 - (span - nb.created_at);
        net_.add_friendship(normal_ids_[u], normal_ids_[nb.node], t);
      }
    }
  }
}

void GroundTruthSimulator::rebuild_popularity_index() {
  std::vector<double> weights(net_.account_count());
  const auto& g = net_.graph();
  for (NodeId id = 0; id < weights.size(); ++id) {
    weights[id] = net_.account(id).banned()
                      ? 0.0
                      : std::pow(static_cast<double>(g.degree(id)) + 1.0,
                                 config_.sybil.target_bias);
  }
  popularity_ = std::make_unique<stats::AliasSampler>(weights);
}

NodeId GroundTruthSimulator::pick_stranger(NodeId self) {
  for (int guard = 0; guard < 8; ++guard) {
    const auto cand =
        static_cast<NodeId>(rng_.uniform_index(net_.account_count()));
    if (cand != self && !net_.account(cand).banned()) return cand;
  }
  return self;  // caller rejects self-requests
}

std::pair<NodeId, std::uint8_t> GroundTruthSimulator::pick_normal_target(
    NodeId u) {
  const auto& g = net_.graph();
  // Aggressive (marketer-like) normals target mostly strangers; they are
  // identified by an invite rate above the regular session cap.
  const double fof_prob =
      net_.account(u).invite_rate > config_.normal.session_invites_cap
          ? config_.normal.aggressive_fof_prob
          : config_.normal.fof_target_prob;
  if (g.degree(u) > 0 && rng_.bernoulli(fof_prob)) {
    // People extend their circle through *strong* ties: bridge through a
    // real friend and target one of that friend's real friends. A Sybil
    // that wormed into u's list via a stranger request is never used as
    // a bridge and rarely surfaces as a target — which is why Sybil
    // neighborhoods stay triangle-free (Fig 4).
    const auto strong_pick = [this](std::span<const graph::Neighbor> list)
        -> std::optional<NodeId> {
      for (int attempt = 0; attempt < 6 && !list.empty(); ++attempt) {
        const auto& cand = list[rng_.uniform_index(list.size())];
        if (!cand.weak) return cand.node;
      }
      return std::nullopt;
    };
    if (const auto bridge = strong_pick(g.neighbors(u))) {
      if (const auto target = strong_pick(g.neighbors(*bridge))) {
        if (*target != u && !net_.account(*target).banned()) {
          return {*target, kTagFriendOfFriend};
        }
      }
    }
  }
  return {pick_stranger(u), kTagStranger};
}

NodeId GroundTruthSimulator::pick_sybil_target(NodeId self) {
  for (int guard = 0; guard < 8; ++guard) {
    const NodeId cand =
        rng_.bernoulli(config_.sybil.uniform_mix)
            ? static_cast<NodeId>(rng_.uniform_index(net_.account_count()))
            : static_cast<NodeId>((*popularity_)(rng_));
    if (cand != self && !net_.account(cand).banned()) return cand;
  }
  return self;
}

void GroundTruthSimulator::hour_step(Time t) {
  SYBIL_METRIC_SCOPED_TIMER(span, "osn.hour_step");
  SYBIL_METRIC_COUNT("osn.hours", 1);
  const auto respond_time = [&](Time now) {
    return now + stats::sample_exponential(
                     rng_, 1.0 / config_.response_delay_mean);
  };

  // Normal users (background + subjects) act identically.
  for (NodeId u : normal_ids_) {
    const Account& acc = net_.account(u);
    if (acc.banned() || !rng_.bernoulli(config_.normal.online_prob)) continue;
    const auto invites = stats::sample_poisson(rng_, acc.invite_rate);
    for (std::uint64_t i = 0; i < invites; ++i) {
      const auto [target, tag] = pick_normal_target(u);
      if (target == u) continue;
      const Time sent_at = t + rng_.uniform();
      net_.send_request(u, target, sent_at, respond_time(sent_at), tag);
    }
  }

  // Sybils run their tools until the campaign budget is spent.
  for (std::size_t i = 0; i < subject_sybils_.size(); ++i) {
    const NodeId s = subject_sybils_[i];
    const Account& acc = net_.account(s);
    if (acc.banned() || !rng_.bernoulli(config_.sybil.online_prob)) continue;
    if (acc.request_budget != 0 &&
        net_.ledger(s).sent() >= acc.request_budget) {
      continue;  // tool campaign finished
    }
    auto invites = stats::sample_poisson(rng_, acc.invite_rate);
    if (acc.request_budget != 0) {
      invites = std::min<std::uint64_t>(
          invites, acc.request_budget - net_.ledger(s).sent());
    }
    const auto& g = net_.graph();
    for (std::uint64_t k = 0; k < invites; ++k) {
      NodeId target;
      std::uint8_t tag = kTagStranger;
      // Stealthy Sybils friend through mutual-friend chains: the target
      // genuinely shares a friend, so the request arrives as FoF.
      if (acc.stealthy && g.degree(s) > 0 &&
          rng_.bernoulli(config_.sybil.stealth_fof_prob)) {
        const auto friends = g.neighbors(s);
        const NodeId f = friends[rng_.uniform_index(friends.size())].node;
        const auto fof = g.neighbors(f);
        target = fof.empty() ? pick_sybil_target(s)
                             : fof[rng_.uniform_index(fof.size())].node;
        if (target != s && !net_.account(target).banned() &&
            net_.graph().has_edge(f, target)) {
          tag = kTagFriendOfFriend;
        }
      } else {
        target = pick_sybil_target(s);
      }
      if (target == s || net_.account(target).banned()) continue;
      const Time sent_at = t + rng_.uniform();
      net_.send_request(s, target, sent_at, respond_time(sent_at), tag);
    }
  }

  // Answer everything due by the end of this hour.
  net_.process_responses(t + 1.0,
                         [this](NodeId target, NodeId requester,
                                std::uint8_t tag) {
                           return decide_response(target, requester, tag);
                         });

  // Renren's pre-existing detection techniques ban Sybils over time.
  for (std::size_t i = 0; i < subject_sybils_.size(); ++i) {
    if (!net_.account(subject_sybils_[i]).banned() && t >= sybil_ban_at_[i]) {
      net_.ban(subject_sybils_[i], t);
    }
  }
}

void GroundTruthSimulator::run() {
  if (finished_ || running_) {
    throw std::logic_error("simulator: run() called twice");
  }
  running_ = true;
  SYBIL_METRIC_SCOPED_TIMER(span, "osn.run");
  SYBIL_METRIC_GAUGE_SET("osn.accounts", net_.account_count());
  const auto hours = static_cast<std::uint64_t>(config_.sim_hours);
  for (std::uint64_t h = 0; h < hours; ++h) {
    if (h >= next_rebuild_) {
      rebuild_popularity_index();
      next_rebuild_ =
          h + std::max<std::uint64_t>(
                  1, static_cast<std::uint64_t>(
                         config_.popularity_rebuild_hours));
    }
    hour_step(static_cast<Time>(h));
    if (hour_hook_) hour_hook_(static_cast<Time>(h) + 1.0, net_);
  }
  // Drain any stragglers past the window end.
  net_.process_responses(config_.sim_hours + 1e9,
                         [this](NodeId target, NodeId requester,
                                std::uint8_t tag) {
                           return decide_response(target, requester, tag);
                         });
  running_ = false;
  finished_ = true;
}

bool GroundTruthSimulator::decide_response(NodeId target, NodeId requester,
                                           std::uint8_t tag) {
  const Account& tgt = net_.account(target);
  if (tgt.is_sybil()) {
    // Sybils accept every incoming request (Fig 3); the rare stealthy
    // ones answer selectively to blend in.
    return !tgt.stealthy ||
           rng_.bernoulli(config_.sybil.stealth_incoming_accept);
  }
  return normal_accepts(config_.normal, tgt, net_.account(requester), tag,
                        rng_);
}

}  // namespace sybil::osn
