#include "service/workload.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "stats/rng.h"

namespace sybil::service {

namespace {

using osn::Event;
using osn::EventType;

/// Bounded pool of outstanding (from, to) requests that accept/reject
/// events resolve. A ring so memory stays O(1) at any stream length.
class PendingRing {
 public:
  bool empty() const noexcept { return size_ == 0; }

  void push(graph::NodeId from, graph::NodeId to) noexcept {
    slots_[head_] = {from, to};
    head_ = (head_ + 1) % kCapacity;
    if (size_ < kCapacity) ++size_;
  }

  /// Removes and returns a pseudo-uniformly chosen entry.
  std::pair<graph::NodeId, graph::NodeId> pop(stats::Rng& rng) noexcept {
    const std::size_t pick =
        (head_ + kCapacity - 1 - rng.uniform_index(size_)) % kCapacity;
    const auto out = slots_[pick];
    // Swap the victim with the newest entry, then shrink.
    const std::size_t newest = (head_ + kCapacity - 1) % kCapacity;
    slots_[pick] = slots_[newest];
    head_ = newest;
    --size_;
    return out;
  }

 private:
  static constexpr std::size_t kCapacity = 1024;
  std::pair<graph::NodeId, graph::NodeId> slots_[kCapacity];
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

constexpr double kTwoPi = 6.283185307179586476925286766559;

void validate_windows(const std::vector<TrafficWindow>& windows,
                      double hours, const char* field) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const TrafficWindow& w = windows[i];
    const std::string name =
        std::string("WorkloadOptions::") + field + "[" + std::to_string(i) + "]";
    if (!(w.start_hour >= 0.0) || !std::isfinite(w.start_hour)) {
      throw std::invalid_argument(name + ".start_hour must be >= 0");
    }
    if (!(w.span_hours > 0.0) || !std::isfinite(w.span_hours)) {
      throw std::invalid_argument(name + ".span_hours must be > 0");
    }
    if (w.start_hour + w.span_hours > hours) {
      throw std::invalid_argument(name + " must end within `hours`");
    }
    if (!(w.intensity >= 0.0) || !std::isfinite(w.intensity)) {
      throw std::invalid_argument(name + ".intensity must be >= 0 and finite");
    }
  }
}

/// Cumulative expected events (unnormalized) on [0, t] under the shaped
/// rate 1 + A*sin(2*pi*t/P) + sum of active flash-crowd intensities.
/// Strictly increasing for A < 1, which is what validate() guarantees.
double shaped_cumulative(const WorkloadOptions& o, double t) {
  double sum = t;
  if (o.diurnal_amplitude != 0.0) {
    const double p = o.diurnal_period_hours;
    sum += o.diurnal_amplitude * (p / kTwoPi) * (1.0 - std::cos(kTwoPi * t / p));
  }
  for (const TrafficWindow& w : o.flash_crowds) {
    const double lo = w.start_hour;
    const double hi = w.start_hour + w.span_hours;
    if (t > lo) sum += w.intensity * (std::min(t, hi) - lo);
  }
  return sum;
}

/// Inverse of shaped_cumulative by bisection: deterministic, monotone
/// in `target`, and exact enough (64 halvings of [0, hours]) that equal
/// targets give bit-equal times on every platform.
double shaped_time(const WorkloadOptions& o, double target) {
  double lo = 0.0, hi = o.hours;
  for (int iter = 0; iter < 64 && lo < hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (shaped_cumulative(o, mid) < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

}  // namespace

void WorkloadOptions::validate() const {
  if (accounts < 16) {
    throw std::invalid_argument("WorkloadOptions::accounts must be >= 16");
  }
  if (events == 0) {
    throw std::invalid_argument("WorkloadOptions::events must be >= 1");
  }
  if (!(hours > 0.0)) {
    throw std::invalid_argument("WorkloadOptions::hours must be > 0");
  }
  if (burst_senders == 0 || burst_senders >= accounts / 2) {
    throw std::invalid_argument(
        "WorkloadOptions::burst_senders must be in [1, accounts/2)");
  }
  const double mix = accept_fraction + reject_fraction +
                     seed_friend_fraction + created_fraction + ban_fraction +
                     malformed_fraction;
  if (mix < 0.0 || mix > 0.9) {
    throw std::invalid_argument(
        "WorkloadOptions: event-mix fractions must sum to <= 0.9 "
        "(the remainder is organic request traffic)");
  }
  if (!(diurnal_amplitude >= 0.0 && diurnal_amplitude < 1.0)) {
    throw std::invalid_argument(
        "WorkloadOptions::diurnal_amplitude must be in [0, 1)");
  }
  if (!(diurnal_period_hours > 0.0) || !std::isfinite(diurnal_period_hours)) {
    throw std::invalid_argument(
        "WorkloadOptions::diurnal_period_hours must be > 0 and finite");
  }
  validate_windows(flash_crowds, hours, "flash_crowds");
  validate_windows(registration_storms, hours, "registration_storms");
  // Conservative bound: even with every storm active at once, the mix
  // must leave organic request mass (the generator's remainder branch).
  double storm_boost = 0.0;
  for (const TrafficWindow& w : registration_storms) storm_boost += w.intensity;
  if (mix + storm_boost > 0.9) {
    throw std::invalid_argument(
        "WorkloadOptions: registration_storms intensities plus the "
        "event-mix fractions must sum to <= 0.9");
  }
}

std::vector<osn::Event> synthetic_workload(const WorkloadOptions& o) {
  o.validate();
  stats::Rng rng(o.seed);
  PendingRing pending;
  std::vector<Event> out;
  // Not in validate(): a stream too large to hold is a well-formed
  // request this run refuses, not a usage error.
  if (o.events > out.max_size()) {
    throw std::invalid_argument(
        "WorkloadOptions::events must be <= " +
        std::to_string(out.max_size()) +
        " (the most events one std::vector can hold), got " +
        std::to_string(o.events));
  }
  out.reserve(o.events);

  // Cumulative thresholds over one uniform draw per event.
  const double t_created = o.created_fraction;
  const double t_ban = t_created + o.ban_fraction;
  const double t_accept = t_ban + o.accept_fraction;
  const double t_reject = t_accept + o.reject_fraction;
  const double t_seed = t_reject + o.seed_friend_fraction;
  const double t_malformed = t_seed + o.malformed_fraction;

  // Organic accounts live above the burst-sender id range; bans only
  // ever hit organic accounts so the burst signature keeps building.
  const auto organic = [&]() -> graph::NodeId {
    return o.burst_senders + 1 +
           static_cast<graph::NodeId>(
               rng.uniform_index(o.accounts - o.burst_senders - 1));
  };

  // Traffic shape. `shaped` guards the timeline: with the default flat
  // shape the legacy expression below is used verbatim, keeping old
  // streams byte-identical (tested). Storms only move probability mass
  // between two branches of the same single draw, so they leave the
  // timeline and the RNG draw sequence untouched.
  const bool shaped = o.diurnal_amplitude != 0.0 || !o.flash_crowds.empty();
  const double total_mass = shaped ? shaped_cumulative(o, o.hours) : 0.0;
  const bool storms = !o.registration_storms.empty();

  std::uint64_t malformed_shape = 0;
  for (std::uint64_t i = 0; i < o.events; ++i) {
    const double t =
        shaped ? shaped_time(o, total_mass * static_cast<double>(i) /
                                    static_cast<double>(o.events))
               : o.hours * static_cast<double>(i) /
                     static_cast<double>(o.events);
    double created_upper = t_created;
    if (storms) {
      for (const TrafficWindow& w : o.registration_storms) {
        if (t >= w.start_hour && t < w.start_hour + w.span_hours) {
          created_upper += w.intensity;
        }
      }
    }
    const double storm_shift = created_upper - t_created;
    const double u = rng.uniform();
    if (u < created_upper) {
      const graph::NodeId a = organic();
      out.push_back({EventType::kAccountCreated, a, a, t});
    } else if (u < t_ban + storm_shift) {
      const graph::NodeId a = organic();
      out.push_back({EventType::kAccountBanned, a, a, t});
    } else if (u < t_accept + storm_shift && !pending.empty()) {
      const auto [from, to] = pending.pop(rng);
      // Dispatch convention: the accepter acts, the sender is subject.
      out.push_back({EventType::kRequestAccepted, to, from, t});
    } else if (u < t_reject + storm_shift && !pending.empty()) {
      const auto [from, to] = pending.pop(rng);
      out.push_back({EventType::kRequestRejected, to, from, t});
    } else if (u < t_seed + storm_shift) {
      const graph::NodeId a = organic();
      graph::NodeId b = organic();
      while (b == a) b = organic();
      out.push_back({EventType::kFriendshipSeeded, a, b, t});
    } else if (u < t_malformed + storm_shift) {
      const graph::NodeId a = organic();
      graph::NodeId b = organic();
      while (b == a) b = organic();
      switch (malformed_shape++ % 4) {
        case 0:
          out.push_back({static_cast<EventType>(0xEE), a, b, t});
          break;
        case 1:
          out.push_back({EventType::kRequestSent, a, a, t});
          break;
        case 2:
          out.push_back({EventType::kRequestSent, a, b,
                         std::numeric_limits<double>::quiet_NaN()});
          break;
        default:
          out.push_back({EventType::kRequestSent,
                         std::numeric_limits<graph::NodeId>::max() - 7, b, t});
          break;
      }
    } else {
      // A friend request: burst senders take burst_fraction of them.
      graph::NodeId from;
      if (rng.bernoulli(o.burst_fraction)) {
        from = 1 + static_cast<graph::NodeId>(
                       rng.uniform_index(o.burst_senders));
      } else {
        from = organic();
      }
      graph::NodeId to = organic();
      while (to == from) to = organic();
      out.push_back({EventType::kRequestSent, from, to, t});
      pending.push(from, to);
    }
  }
  return out;
}

}  // namespace sybil::service
