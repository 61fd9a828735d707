#include "core/detector_options.h"

#include <cmath>
#include <stdexcept>
#include <string>

namespace sybil::core {

namespace {

[[noreturn]] void reject(const std::string& what) {
  throw std::invalid_argument("DetectorOptions: " + what);
}

}  // namespace

void DetectorOptions::validate() const {
  if (!(rule.outgoing_accept_max >= 0.0 && rule.outgoing_accept_max <= 1.0)) {
    reject("rule.outgoing_accept_max must be a ratio in [0, 1]");
  }
  if (!(rule.invite_rate_min >= 0.0)) {
    reject("rule.invite_rate_min must be >= 0 invites per hour");
  }
  if (!(rule.clustering_max >= 0.0 && rule.clustering_max <= 1.0)) {
    reject("rule.clustering_max must be a coefficient in [0, 1]");
  }
  if (!(ingest.watermark_hours >= 0.0) ||
      !std::isfinite(ingest.watermark_hours)) {
    reject("ingest.watermark_hours must be a finite non-negative skew");
  }
  if (ingest.max_account_id == 0) {
    reject("ingest.max_account_id must be >= 1");
  }
  if (overload.queue_capacity == 0) {
    reject("overload.queue_capacity must be >= 1");
  }
  if (overload.shed_watermark == 0 ||
      overload.shed_watermark > overload.sweep_only_watermark) {
    reject("overload.shed_watermark must be in [1, sweep_only_watermark]");
  }
  if (overload.sweep_only_watermark > overload.queue_capacity) {
    reject("overload.sweep_only_watermark must be <= queue_capacity");
  }
  if (overload.resume_watermark >= overload.shed_watermark) {
    reject(
        "overload.resume_watermark must be < shed_watermark (hysteresis)");
  }
  if (defense.enabled) {
    for (const graph::NodeId s : defense.seeds) {
      if (s > ingest.max_account_id) {
        reject("defense.seeds must lie within ingest.max_account_id");
      }
    }
  }
}

}  // namespace sybil::core
