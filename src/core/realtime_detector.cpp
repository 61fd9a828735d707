#include "core/realtime_detector.h"

#include "core/metrics/instrument.h"

namespace sybil::core {

namespace {

/// Manual-verification confirmations between two retunes of the rule.
constexpr std::size_t kRetuneEvery = 200;

}  // namespace

RealTimeDetector::RealTimeDetector(const DetectorOptions& options)
    : options_([&] {
        options.validate();  // reject nonsense before any member is built
        return options;
      }()),
      detector_(options.rule),
      tuner_(AdaptiveConfig{.initial = options.rule}) {}

FlagBatch RealTimeDetector::sweep(const osn::Network& net,
                                  const std::vector<osn::NodeId>& candidates,
                                  graph::Time now) {
  SYBIL_METRIC_SCOPED_TIMER(span, "realtime.sweep");
  SYBIL_METRIC_COUNT("realtime.candidates", candidates.size());
  const FeatureExtractor extractor(net);

  FlagBatch newly_flagged;
  std::size_t evaluated = 0;
  for (const osn::NodeId id : candidates) {
    if (flagged_.contains(id) || net.account(id).banned()) continue;
    ++evaluated;
    const SybilFeatures f = extractor.extract(id);
    if (detector_.is_sybil(f, net.ledger(id).sent())) {
      flagged_.insert(id);
      newly_flagged.records.push_back(FlagRecord{id, f, now});
    }
  }
  SYBIL_METRIC_COUNT("realtime.sweep.evaluated", evaluated);
  SYBIL_METRIC_COUNT("realtime.flagged", newly_flagged.size());
  SYBIL_METRIC_OBSERVE("realtime.flagged_per_sweep", newly_flagged.size());
  return newly_flagged;
}

void RealTimeDetector::confirm(const SybilFeatures& features,
                               bool confirmed_sybil) {
  SYBIL_METRIC_COUNT("realtime.confirmations", 1);
  tuner_.observe(features, confirmed_sybil);
  if (++confirmations_ % kRetuneEvery == 0) {
    SYBIL_METRIC_COUNT("realtime.retunes", 1);
    detector_.set_rule(tuner_.retune());
  }
}

}  // namespace sybil::core
