// Ground-truth simulation: the substitute for the paper's 1000-Sybil /
// 1000-normal verified dataset and the 400-hour behavioral window that
// Figs 1-4 and Table 1 are computed from.
//
// The simulator advances in 1-hour steps. Each hour, online normal users
// send invites (mostly to friends-of-friends), online Sybils run their
// management tool (popularity-biased targeting at high rates), pending
// requests that have reached their think-time deadline get answered, and
// Sybils whose "prior-technique" detection time has arrived are banned.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "graph/generators.h"
#include "osn/behavior.h"
#include "osn/network.h"
#include "stats/distributions.h"
#include "stats/rng.h"

namespace sybil::osn {

struct GroundTruthConfig {
  /// Background population forming the ambient social graph. The
  /// population scale sets the ambient edge density and therefore the
  /// floor on Sybil clustering coefficients; 60k reproduces the paper's
  /// Table 1 numbers (see EXPERIMENTS.md for the scaling discussion).
  std::uint32_t background_users = 60'000;
  /// Tracked accounts: the simulated counterpart of Renren's verified
  /// 1000 + 1000 ground-truth set. Subjects behave exactly like
  /// background accounts of their kind; they are only *tracked*.
  std::uint32_t subject_normals = 1'000;
  std::uint32_t subject_sybils = 1'000;

  double sim_hours = 400.0;
  std::uint64_t seed = 42;

  /// Seed social graph among normal users (pre-existing friendships).
  /// Triadic closure is set so the measured first-50-friends clustering
  /// of normal users lands near the paper's 0.0386 average.
  graph::OsnGraphParams seed_graph{
      .nodes = 0,  // overwritten with the normal population size
      .mean_links = 12.0,
      .triadic_closure = 0.22,
      .pa_beta = 0.8,
  };

  NormalBehaviorParams normal;
  SybilBehaviorParams sybil;

  /// Mean think time before a request is answered, hours (exponential).
  double response_delay_mean = 12.0;
  /// How often the attacker tools refresh their popularity index.
  double popularity_rebuild_hours = 24.0;
};

class GroundTruthSimulator {
 public:
  explicit GroundTruthSimulator(GroundTruthConfig config);

  /// Callback invoked after each simulated hour completes — the hook a
  /// deployed detector (or any live instrumentation) attaches to.
  using HourHook = std::function<void(Time end_of_hour, Network&)>;
  void set_hour_hook(HourHook hook) { hour_hook_ = std::move(hook); }

  /// Runs the window from hour 0 to config().sim_hours. Throws if
  /// called a second time.
  void run();

  bool finished() const noexcept { return finished_; }

  const Network& network() const noexcept { return net_; }
  Network& network() noexcept { return net_; }

  /// Node ids of the tracked subject accounts.
  const std::vector<NodeId>& subject_normals() const noexcept {
    return subject_normals_;
  }
  const std::vector<NodeId>& subject_sybils() const noexcept {
    return subject_sybils_;
  }

  const GroundTruthConfig& config() const noexcept { return config_; }

 private:
  void populate();
  void seed_friendships();
  void rebuild_popularity_index();
  NodeId pick_stranger(NodeId self);
  /// Friend-of-friend pick; falls back to a stranger when u is isolated.
  std::pair<NodeId, std::uint8_t> pick_normal_target(NodeId u);
  NodeId pick_sybil_target(NodeId self);
  bool decide_response(NodeId target, NodeId requester, std::uint8_t tag);
  void hour_step(Time t);

  GroundTruthConfig config_;
  stats::Rng rng_;
  Network net_;
  std::vector<NodeId> normal_ids_;  // background + subjects
  std::vector<NodeId> subject_normals_;
  std::vector<NodeId> subject_sybils_;
  std::vector<Time> sybil_ban_at_;  // parallel to subject_sybils_
  std::unique_ptr<stats::AliasSampler> popularity_;
  HourHook hour_hook_;
  std::uint64_t next_rebuild_ = 0;
  bool running_ = false;  // reentrancy guard
  bool finished_ = false;
};

}  // namespace sybil::osn
