// Real-time Sybil detection pipeline (Section 2.3).
//
// Deployed form of the threshold detector: it periodically sweeps the
// accounts that have been active since the last sweep, extracts the four
// features, applies the (adaptively tuned) threshold rule,
// and reports accounts to flag. Renren's workflow — flag, manual
// verification, ban, feedback into the tuner — is modeled by the caller
// confirming flags back into the pipeline.
//
// A sweep evaluates every candidate that is neither flagged nor banned.
// Feedback feeds an AdaptiveThresholdTuner with its default
// configuration, seeded with the options' rule, and the rule is retuned
// every 200 confirmations.
//
// Observability: each sweep runs under a "realtime.sweep" span and
// bumps candidate/evaluated/flag counters. Collection never affects
// verdicts or tuner state.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/adaptive.h"
#include "core/detector.h"
#include "core/detector_options.h"
#include "core/features.h"
#include "core/threshold_detector.h"
#include "osn/network.h"

namespace sybil::core {

class RealTimeDetector {
 public:
  /// Throws std::invalid_argument if `options` fails validate().
  explicit RealTimeDetector(const DetectorOptions& options = {});

  /// Evaluates `candidates` against the current rule using a fresh
  /// feature snapshot of `net`. Returns the newly flagged accounts with
  /// the features the rule fired on, stamped with `now` (flagged and
  /// banned accounts are skipped).
  FlagBatch sweep(const osn::Network& net,
                  const std::vector<osn::NodeId>& candidates,
                  graph::Time now = 0.0);

  /// Manual-verification feedback: the account's features at flag time
  /// plus the verdict. Drives the adaptive tuner.
  void confirm(const SybilFeatures& features, bool confirmed_sybil);

  const ThresholdRule& rule() const noexcept { return detector_.rule(); }
  std::size_t flagged_count() const noexcept { return flagged_.size(); }
  bool already_flagged(osn::NodeId id) const {
    return flagged_.contains(id);
  }

 private:
  /// State codec (core/detector_state.h): serializes the flag set and
  /// the tuner.
  friend struct DetectorStateAccess;

  DetectorOptions options_;
  ThresholdDetector detector_;
  AdaptiveThresholdTuner tuner_;
  std::unordered_set<osn::NodeId> flagged_;
  std::size_t confirmations_ = 0;
};

}  // namespace sybil::core
